"""Run the benchmark in alternating parent/change pairs and write a BENCH file.

Run from the root of a sasvkit checkout; the working tree is the change:

    python3 scripts/bench_pairs.py --parent HEAD~1 --workload train-wide \
        --seeds 1 2 3 4 5 6 7 8 9 --out BENCH_7.json

Both sides run from exports in one temporary directory, which is removed
afterwards: the parent revision through ``git archive`` into ``parent/``, and
the working tree's tracked and untracked, non-ignored files (``git ls-files
-co --exclude-standard``) copied into ``change/``. The two paths have the same
length, since the directory a run starts from moves where its heap lands and
so its peak resident set. For every workload and seed the script
runs ``benchmark/run.py --trace 0`` once on each side, for the ``run_seconds``
that ``BENCHMARK.json`` sets, the parent first on
even pairs and the change first on odd ones, so that a drift of the machine's
speed favours neither side. Held-out seed 7919 is always added. After a
workload's pairs, one ``--trace 1`` run per side on seed 7919 records the
per-layer metrics, which show in which layer a change of the end-to-end
numbers lands.

The JSON file holds, per workload, every pair's end-to-end metrics and
correctness counts, and per metric each side's median and quartiles, the
median's relative change, how many pairs each side won and whether the
change's median lies outside the parent's interquartile range. It also keeps
the ``machine:`` lines and, per run, the ``eer`` lines that the runs printed,
and whether the two sides of every pair printed the same EERs. A run that
ends without its result line is kept with its exit code and last output
lines, and the summaries use only the pairs whose two runs both reported.
To tie the numbers to the code they measured, it records the git tree hashes of
``src/``, ``tests/`` and ``scripts/`` on each side, the change's taken from the
working tree as it stands; ``git rev-parse <commit>:src`` on a commit that
holds the same files prints the same hash.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

HELD_OUT_SEED = 7919
TREES = ("src", "tests", "scripts")
TAIL_LINES = 20  # output lines kept from a failed run


def git(*args, cwd: Path, env=None) -> str:
    return subprocess.run(["git", *args], cwd=cwd, env=env, check=True, capture_output=True,
                          text=True).stdout.strip()


def export(rev: str, dest: Path, cwd: Path) -> None:
    """Write the files of ``rev`` into ``dest``."""
    archive = subprocess.run(["git", "archive", rev], cwd=cwd, check=True,
                             capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")


def copy_working_tree(checkout: Path, dest: Path) -> None:
    """Copy the tracked and untracked, non-ignored files of ``checkout`` into ``dest``."""
    listed = git("ls-files", "-co", "--exclude-standard", "-z", cwd=checkout)
    for name in filter(None, listed.split("\0")):
        source = checkout / name
        if source.is_file():  # a tracked file deleted from the working tree is skipped
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, dest / name)


def trees(checkout: Path, rev: str | None) -> dict:
    """Tree hashes of the measured directories, at ``rev`` or in the working tree."""
    if rev is not None:
        return {d: git("rev-parse", f"{rev}:{d}", cwd=checkout) for d in TREES}
    with tempfile.TemporaryDirectory() as tmp:
        index = {"env": {**os.environ, "GIT_INDEX_FILE": str(Path(tmp) / "index")}}
        git("read-tree", "HEAD", cwd=checkout, **index)
        git("add", "--all", "--", *TREES, cwd=checkout, **index)
        return {d: git("write-tree", f"--prefix={d}/", cwd=checkout, **index) for d in TREES}


def run_once(checkout: Path, workload: str, seed: int, seconds: float, trace: int = 0) -> dict:
    """One ``benchmark/run.py`` run; its result line plus the lines worth keeping.

    A run without a result line is returned as its exit code and output tail.
    """
    argv = [sys.executable, "benchmark/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return {"exit_code": proc.returncode,
                "tail": (proc.stdout + proc.stderr).splitlines()[-TAIL_LINES:]}
    return {
        "exit_code": proc.returncode,
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
        "machine": [l for l in lines if l.startswith("machine:")],
        "eer": [l for l in lines if l.startswith("eer ")],
    }


def quartiles(values: list) -> dict:
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"median": median, "q1": q1, "q3": q3}


def summarize(pairs: list, better: dict) -> dict:
    if not pairs:
        return {}
    summary = {}
    for name, direction in better.items():
        sign = 1.0 if direction == "lower" else -1.0
        parent = [p["parent"]["metrics"][name] for p in pairs]
        change = [p["change"]["metrics"][name] for p in pairs]
        base, new = quartiles(parent), quartiles(change)
        change_wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
        parent_wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
        summary[name] = {
            "better": direction,
            "parent": base,
            "change": new,
            "median_change_pct": 100.0 * (new["median"] / base["median"] - 1.0),
            "change_wins": change_wins,
            "parent_wins": parent_wins,
            "outside_parent_iqr": not base["q1"] <= new["median"] <= base["q3"],
        }
    return summary


def run_pairs(args, parent: Path, change: Path, better: dict, seconds: float) -> dict:
    results = {}
    seeds = list(dict.fromkeys(args.seeds + [HELD_OUT_SEED]))
    for workload in args.workload:
        pairs = []
        for i, seed in enumerate(seeds):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                checkout = parent if side == "parent" else change
                pair[side] = run_once(checkout, workload, seed, seconds)
            pairs.append(pair)
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{side} {pair[side].get('metrics', {}).get('train_s', float('nan')):.3f}"
                f"{'' if pair[side].get('correct') else ' (incorrect or failed)'}"
                for side in ("parent", "change")) + " train_s", flush=True)
        traced = {"seed": HELD_OUT_SEED}
        for side, checkout in (("parent", parent), ("change", change)):
            traced[side] = run_once(checkout, workload, HELD_OUT_SEED, seconds, trace=1)
        runs = [p[s] for p in pairs for s in ("parent", "change")]
        complete = [p for p in pairs if "metrics" in p["parent"] and "metrics" in p["change"]]
        results[workload] = {
            "summary": summarize(complete, better),
            "pairs_used": len(complete),
            "all_correct": all(r.get("correct", False) for r in runs),
            "failed_runs": sum("metrics" not in r for r in runs),
            "machine": sorted({l for r in runs + [traced["parent"], traced["change"]]
                               for l in r.pop("machine", [])}),
            "eer_identical": all(p["parent"].get("eer") == p["change"].get("eer")
                                 for p in pairs),
            "pairs": pairs,
            "traced": traced,
        }
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", default="HEAD~1", help="git revision of the parent")
    parser.add_argument("--workload", nargs="+", required=True)
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    checkout = Path.cwd()
    spec = json.loads((checkout / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    unknown = set(args.workload) - {w["name"] for w in spec["workloads"]}
    if unknown:
        parser.error(f"unknown workload(s): {', '.join(sorted(unknown))}")
    parent_rev = git("rev-parse", args.parent, cwd=checkout)
    record = {
        "change": {"head": git("rev-parse", "HEAD", cwd=checkout),
                   "dirty": bool(git("status", "--porcelain", cwd=checkout)),
                   "trees": trees(checkout, None),
                   "ran_from": "export of the working tree (git ls-files -co --exclude-standard)"},
        "parent": {"head": parent_rev, "trees": trees(checkout, parent_rev),
                   "ran_from": "export of the revision (git archive)"},
        "seeds": list(dict.fromkeys(args.seeds + [HELD_OUT_SEED])),
        "seconds": spec["run_seconds"],
    }
    with tempfile.TemporaryDirectory() as tmp:
        # sibling directories whose paths have the same length
        parent, change = Path(tmp) / "parent", Path(tmp) / "change"
        export(parent_rev, parent, checkout)
        copy_working_tree(checkout, change)
        record["workloads"] = run_pairs(args, parent, change, better, spec["run_seconds"])
    args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
