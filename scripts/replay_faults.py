#!/usr/bin/env python3
"""Replay a benchmark workload's commands in one process and show their page faults.

    python3 scripts/replay_faults.py --workload score-large --seed 1 --rounds 3

The corpus and checkpoints are made once, then each round runs the workload's
``evaluate`` and ``report`` commands through ``sasvkit.cli.main`` (package from
this checkout's ``src/``). Per command it prints the wall time, the minor page
faults taken during it (``getrusage``) and VmHWM from ``/proc/self/status``.
Faults that differ between two checkouts running the same code point to heap
state, not code. The script only reads under ``/proc``.

After the rounds, each model is evaluated once more in a fresh
``python -m sasvkit.cli evaluate`` process, one after another; those
``fresh evaluate`` lines show that process's own faults and peak resident set
(``ru_maxrss`` from ``os.wait4``) in the same columns. On score-large, iep and
baseline2 are trained (two epochs, in child processes) for these lines only.
"""

import argparse
import os
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# one BLAS thread per usable CPU, as the benchmark sets it; before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(len(os.sched_getaffinity(0)))
os.environ["SASV_LOG"] = "error"
SRC = str(Path(__file__).resolve().parent.parent / "src")
sys.path.insert(0, SRC)

from sasvkit import cli  # noqa: E402

# corpus settings, (model, train settings), models evaluated, model reported,
# (model, train settings) trained after the rounds for the fresh-process lines
WORKLOADS = {
    "train-fusion": ([], [("msfm", []), ("iep", [])], ["msfm", "iep"], "msfm", []),
    "train-wide": (["--set", "nontarget_neighbors=12"],
                   [("baseline2", ["--set", "epochs=6"])], ["baseline2"], "baseline2", []),
    "score-large": (["--set", "n_speakers=1000", "--set", "nontarget_neighbors=18"],
                    [("msfm", ["--set", "epochs=2"])], ["baseline1", "msfm"], "msfm",
                    [(m, ["--set", "epochs=2"]) for m in ("iep", "baseline2")]),
}


def vm_hwm_mb() -> float:
    with open("/proc/self/status", encoding="ascii") as fh:
        line = next(l for l in fh if l.startswith("VmHWM:"))
    return int(line.split()[1]) / 1024


def run(label: str, *argv) -> None:
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    start = time.perf_counter()
    code = cli.main([str(a) for a in argv])
    wall = time.perf_counter() - start
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    print(f"{label:<22} {wall:8.3f} {faults:9d} {vm_hwm_mb():9.1f}"
          + ("" if code == 0 else f"  exit {code}"), flush=True)


# Spawns argv[1:], waits for it with os.wait4, which reports that child's usage
# alone (RUSAGE_CHILDREN keeps a running maximum), and prints its minor faults,
# ru_maxrss (KiB) and exit code. It runs in a small interpreter of its own:
# Linux starts a spawned process's ru_maxrss at the high-water mark of the
# process that spawned it, which here would be the replay's.
_LAUNCHER = """import os, sys
pid = os.posix_spawn(sys.argv[1], sys.argv[1:], os.environ)
_, status, usage = os.wait4(pid, 0)
print(usage.ru_minflt, usage.ru_maxrss, os.waitstatus_to_exitcode(status))
"""


def run_child(label: str, *argv) -> None:
    """Run one sasvkit command in a fresh process; print its own faults and peak."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-S", "-c", _LAUNCHER, sys.executable, "-m", "sasvkit.cli",
         *map(str, argv)],
        env=dict(os.environ, PYTHONPATH=SRC), capture_output=True, text=True, check=True)
    wall = time.perf_counter() - start
    faults, max_rss_kib, code = map(int, proc.stdout.split()[-3:])
    print(f"{label:<22} {wall:8.3f} {faults:9d} {max_rss_kib / 1024:9.1f}"
          + ("" if code == 0 else f"  exit {code}"), flush=True)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0, help="corpus seed 1234 + n, train seed n")
    parser.add_argument("--rounds", type=int, default=3)
    args = parser.parse_args()
    corpus_settings, trainings, evaluated, reported, fresh_only = WORKLOADS[args.workload]
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        corpus = work / "corpus"
        stores = ["--asv-store", corpus / "asv.emb", "--cm-store", corpus / "cm.emb"]
        trial_files = ["--trials", corpus / "trials_eval.txt",
                       "--enrollment", corpus / "enrollment.txt"]
        print(f"{'command':<22} {'wall_s':>8} {'minflt':>9} {'vmhwm_mb':>9}")
        run("synth", "synth", "--out", corpus, "--seed", 1234 + args.seed, *corpus_settings)
        for model, settings in trainings:
            run(f"train {model}", "train", "--model", model, *stores, "--protocol",
                corpus / "protocol.txt", "--out", work / model, "--seed", args.seed, *settings)

        def evaluate(model, out):
            checkpoint = [] if model == "baseline1" else [
                "--checkpoint", work / model / "model.ckpt"]
            return ("evaluate", "--model", model, *checkpoint, *stores, *trial_files,
                    "--out", out)

        for r in range(args.rounds):
            for model in evaluated:
                run(f"{r} evaluate {model}", *evaluate(model, work / f"eval-{model}-{r}"))
            run(f"{r} report {reported}", "report", "--scores",
                work / f"eval-{reported}-{r}" / "scores.txt", *trial_files,
                "--out", work / f"report-{r}")
        for model, settings in fresh_only:
            run_child(f"train {model}", "train", "--model", model, *stores, "--protocol",
                      corpus / "protocol.txt", "--out", work / model, "--seed", args.seed,
                      *settings)
        for model in evaluated + [model for model, _ in fresh_only]:
            run_child(f"fresh evaluate {model}", *evaluate(model, work / f"fresh-{model}"))


if __name__ == "__main__":
    main()
