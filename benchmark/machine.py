"""Machine context for a run: library versions, cache size, copy and GEMM rates.

The copy rate is a roofline for the optimizer step (bandwidth bound) and the
GEMM rate one for the forward and backward passes (compute bound). Both are
measured in the run that reports them, on arrays well outside the caches.
"""

from __future__ import annotations

import ctypes
import os
import resource
import statistics
import time

import numpy as np

_SC_LEVEL3_CACHE_SIZE = 194  # glibc <bits/confname.h>
_FALLBACK_LLC_BYTES = 105 * 2**20


def last_level_cache_bytes() -> int:
    """L3 size from glibc's sysconf (read from CPUID, no file access)."""
    try:
        libc = ctypes.CDLL(None)
        libc.sysconf.argtypes = [ctypes.c_int]
        libc.sysconf.restype = ctypes.c_long
        size = int(libc.sysconf(_SC_LEVEL3_CACHE_SIZE))
    except (OSError, AttributeError):
        size = 0
    return size if size > 0 else _FALLBACK_LLC_BYTES


def reset_peak_rss() -> bool:
    """Restart this process's resident-set high-water mark at its current size.

    Writing 5 to ``clear_refs`` resets ``VmHWM`` (Linux 4.0 and later), so a
    later ``peak_rss_mb`` covers only what ran after the reset.
    """
    try:
        with open("/proc/self/clear_refs", "w", encoding="ascii") as fh:
            fh.write("5")
    except OSError:
        return False
    return True


def peak_rss_mb() -> float:
    """Resident-set high-water mark in MB (10^6 bytes) since the last reset."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) * 1024 / 1e6
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def library_info() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "cpus": len(os.sched_getaffinity(0)),
    }


def copy_gbps(array_bytes: int, repeats: int = 5) -> float:
    """STREAM-style copy rate in GB/s, counting bytes read plus written."""
    n = array_bytes // 8
    src = np.ones(n)
    dst = np.empty(n)
    np.copyto(dst, src)
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        np.copyto(dst, src)
        times.append(time.perf_counter() - start)
    return 2 * n * 8 / statistics.median(times) / 1e9


def gemm_gflops(n: int, repeats: int = 5) -> float:
    """float64 square matrix product rate."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((n, n))
    b = rng.standard_normal((n, n))
    out = np.empty((n, n))
    np.matmul(a, b, out=out)
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        np.matmul(a, b, out=out)
        times.append(time.perf_counter() - start)
    return 2 * n**3 / statistics.median(times) / 1e9


def measure(small: bool) -> tuple:
    """Return (metrics, info); ``small`` shrinks the arrays for smoke runs."""
    llc = last_level_cache_bytes()
    array_bytes = 8 * 2**20 if small else 4 * llc
    info = {"llc_mib": llc / 2**20, "copy_array_mib": array_bytes / 2**20}
    metrics = {
        "machine.copy_gbps": copy_gbps(array_bytes),
        "machine.gemm_gflops": gemm_gflops(256 if small else 1024),
    }
    return metrics, info
