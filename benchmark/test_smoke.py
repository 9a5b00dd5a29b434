"""Smoke tests of the benchmark itself: a tiny corpus and one epoch.

Run from the root of the checkout:

    python3 -m pytest benchmark/test_smoke.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(cwd: Path, *args) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "benchmark/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_emits_every_metric_without_errors(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["failed"] == 0 and result["correct"] is True, proc.stdout
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for metric in wanted:
        emitted = result["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"]
        assert isinstance(emitted["value"], (int, float))
        if not trace:
            assert emitted["value"] > 0, metric["name"]
    if trace:
        assert result["metrics"]["trace.missing"]["value"] == 0
        # spans cover the traced commands: only the benchmark's own loop is outside
        assert result["metrics"]["trace.accounted_pct"]["value"] > 95.0


def test_missing_boundary_is_reported_not_zero(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(ROOT / "benchmark"))
    import spans

    gone = spans.Boundary("data.gather", "sasvkit.data:EmbeddingStore.no_such_method")
    tracer = spans.Tracer(boundaries=(gone,))
    tracer.install()
    tracer.uninstall()
    values, notes = spans.layer_metrics(tracer, traced_wall=1.0)
    assert tracer.missing == ["sasvkit.data:EmbeddingStore.no_such_method"]
    assert values["data.gather_s"] == -1.0 and values["data.gather_rows"] == -1.0
    assert values["trace.missing"] == 1
    assert any("MISSING" in note for note in notes)


def test_child_wrapper_cost_is_not_parent_self_time(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "benchmark"))
    import spans

    toy = types.ModuleType("toy")
    toy.child = lambda: None
    toy.parent = lambda: [toy.child() for _ in range(100)]
    monkeypatch.setitem(sys.modules, "toy", toy)
    slow_hook = lambda tracer, args, kwargs: time.sleep(0.002)  # noqa: E731
    tracer = spans.Tracer(boundaries=(
        spans.Boundary("parent", "toy:parent"),
        spans.Boundary("child", "toy:child", before=slow_hook),
    ))
    tracer.install()
    try:
        toy.parent()
    finally:
        tracer.uninstall()
    own = tracer.self_times()
    # the 100 hooks sleep >= 0.2 s inside the parent's span; that is tracer
    # overhead, not the parent's work
    assert own[0] < 0.05
    assert tracer.overhead >= 0.2
    assert sum(own) + tracer.overhead >= 0.2


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "benchmark", tmp_path / "benchmark",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", WORKLOADS[0], "--seed", "0", "--seconds", "1",
                "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
