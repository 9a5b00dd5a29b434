"""sasvkit benchmark: the waits of ``sasvkit train`` and ``evaluate`` / ``report``.

Run from the root of a checkout:

    python3 benchmark/run.py --workload train-fusion --seed 0 --seconds 10 --trace 0

The benchmark drives the package from outside, through ``sasvkit.cli.main``,
the path a user's commands take. It is a closed loop: one caller in this one
process runs one command at a time, with BLAS limited to the CPUs this process
may use. Workloads:

* ``train-fusion`` trains msfm and iep with the default settings on the
  default synthetic corpus and evaluates both.
* ``train-wide`` trains baseline2 (2.7 M parameters) for six epochs on the
  same training data, then evaluates it on 3550 trials.
* ``score-large`` evaluates baseline1 and msfm on a 48k-utterance corpus with
  101k trials and reports msfm's score file; the msfm checkpoint is trained
  in set-up (two epochs), and that training is what ``train_s`` measures here.

That is the timed part, ``wall_s``. Repeat rounds after it, outside
``wall_s``, add set-ups, evaluates and reports so that the short commands
are sampled over more of the run.

``--seed n`` makes the corpus from dataset seed 1234 + n and trains with
seed n, so seed 0 reproduces the reference table. With ``--trace 0`` the
last stdout line carries the end-to-end metrics of BENCHMARK.json, from an
untraced run; with ``--trace 1`` it carries the per-layer metrics, from one
traced set-up and one traced timed iteration.
``--smoke`` shrinks the corpus and training to one epoch so the benchmark's
own tests run in seconds.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time
from pathlib import Path

# one caller, BLAS limited to the CPUs this process may run on; set before
# numpy is imported
CPUS = len(os.sched_getaffinity(0))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(CPUS)
os.environ["SASV_LOG"] = "error"

import checks  # noqa: E402  (numpy must see the thread settings first)
import machine  # noqa: E402
import spans  # noqa: E402

ROOT = Path.cwd()
DATASET_SEED = 1234
WIDE_EPOCHS = 6
# train-wide scores 3550 eval trials instead of 800. Its training data and
# stores are those of the default corpus (trial lists use no randomness), and
# its evaluate and report run long enough that creating their output files
# no longer dominates them.
WIDE_TRIALS = ["--set", "nontarget_neighbors=12"]
# criterion 6 of the acceptance suite: SASV-EER bounds for trained systems
SASV_EER_BOUNDS = {"msfm": 5.0, "iep": 8.0}
LARGE_CORPUS = ["--set", "n_speakers=1000", "--set", "nontarget_neighbors=18"]
SMOKE_CORPUS = ["--set", "n_speakers=6", "--set", "utts_per_speaker=8",
                "--set", "spoofs_per_speaker=6"]
SMOKE_LARGE_CORPUS = ["--set", "n_speakers=20", "--set", "utts_per_speaker=8",
                      "--set", "spoofs_per_speaker=6", "--set", "nontarget_neighbors=3"]
SMOKE_TRAIN = ["--set", "epochs=1", "--set", "samples_per_epoch=64"]


class Bench:
    """Runs commands and checks for one workload, counting what fails."""

    def __init__(self, sasvkit, work: Path, seed: int, smoke: bool):
        self.sasvkit = sasvkit
        self.work = work
        self.seed = seed
        self.smoke = smoke
        self.attempted = 0
        self.failed = 0
        self.latest = {}  # output name -> directory of the last command that wrote it
        self._outputs = 0

    def out(self, name: str) -> Path:
        """A fresh output directory for one command.

        Rewriting a file makes ext4 start its writeback on close (the
        auto_da_alloc heuristic for truncate-and-rewrite), which added
        milliseconds of disk-dependent noise to every repeated command.
        """
        self._outputs += 1
        self.latest[name] = self.work / f"{name}-{self._outputs}"
        return self.latest[name]

    @property
    def corpus(self) -> Path:
        return self.latest["corpus"]

    def command(self, *argv) -> float:
        """Run one sasvkit command in-process; return its wall time."""
        argv = [str(a) for a in argv]
        start = time.perf_counter()
        # looked up on the module each call, so a traced run sees its wrapper
        code = self.sasvkit.cli.main(argv)
        elapsed = time.perf_counter() - start
        self.attempted += 1
        if code != 0:
            self.failed += 1
            print(f"FAIL: sasvkit {' '.join(argv)} exited {code}")
        return elapsed

    def check(self, label: str, fn, *args) -> None:
        self.attempted += 1
        try:
            fn(*args)
        except Exception as exc:  # every failed check is counted, none stops the run
            self.failed += 1
            print(f"FAIL: check {label}: {type(exc).__name__}: {exc}")

    # --- commands -----------------------------------------------------------

    def synth(self, sizes: list, smoke_sizes: list) -> float:
        if self.smoke:
            sizes = smoke_sizes
        if "corpus" in self.latest:
            # drop the previous corpus before its pages are written back
            shutil.rmtree(self.corpus)
        return self.command("synth", "--out", self.out("corpus"),
                            "--seed", DATASET_SEED + self.seed, *sizes)

    def stores(self) -> list:
        return ["--asv-store", self.corpus / "asv.emb", "--cm-store", self.corpus / "cm.emb"]

    def train(self, model: str, *settings) -> float:
        extra = SMOKE_TRAIN if self.smoke else list(settings)
        return self.command("train", "--model", model, *self.stores(),
                            "--protocol", self.corpus / "protocol.txt",
                            "--out", self.out(model), "--seed", self.seed, *extra)

    def evaluate(self, model: str) -> float:
        checkpoint = [] if model == "baseline1" else [
            "--checkpoint", self.latest[model] / "model.ckpt"]
        return self.command("evaluate", "--model", model, *checkpoint, *self.stores(),
                            *self.trial_files(), "--out", self.out(f"eval-{model}"))

    def report(self, model: str) -> float:
        return self.command("report", "--scores", self.latest[f"eval-{model}"] / "scores.txt",
                            *self.trial_files(), "--out", self.out(f"report-{model}"))

    def trial_files(self) -> list:
        return ["--trials", self.corpus / "trials_eval.txt",
                "--enrollment", self.corpus / "enrollment.txt"]

    def examples(self, model: str) -> int:
        """Pairs or triplets the last training of ``model`` consumed."""
        settings = dict(
            line.split(" = ", 1)
            for line in (self.latest[model] / "resolved_config.txt").read_text().splitlines()
        )
        return int(settings["epochs"]) * int(settings["samples_per_epoch"])

    def n_trials(self) -> int:
        return len(checks.read_rows(self.corpus / "trials_eval.txt"))

    def print_eers(self, model: str) -> None:
        try:
            eers = checks.read_eers(self.latest[f"eval-{model}"] / "report.csv")
        except (KeyError, OSError, ValueError, IndexError):
            return
        print(f"eer {model}: " + " ".join(f"{m}={v:.2f}%" for m, v in eers.items()))


# --- workloads ----------------------------------------------------------------
#
# Each workload has a set-up, run ``setups`` times before the timed part; a
# timed part, the train / evaluate / report commands a user waits on, which
# alone make up ``wall_s``; ``rounds`` repeat rounds after it, outside
# ``wall_s``, that give evaluate_s, report_s and setup_s more samples; a count
# of the examples and trials the commands handled; and checks that run at the
# end.
#
# Why the repeat rounds: on the default corpus evaluate takes ~0.3 s, report
# ~15 ms and a set-up ~0.13 s, and on a shared machine their speed flips
# between two levels for seconds at a time, with what the other tenants run.
# One sample catches one moment of that. The rounds spread the samples over
# ten seconds or more of the run instead.


class TrainFusion:
    setups = 5
    rounds = 20  # each: a set-up, evaluate msfm and iep, 10 reports

    def setup(self, b: Bench) -> dict:
        return {"setup": b.synth([], SMOKE_CORPUS)}

    def timed(self, b: Bench) -> dict:
        train = b.train("msfm") + b.train("iep")
        return {"train": train, "evaluate": b.evaluate("msfm") + b.evaluate("iep")}

    def repeat(self, b: Bench) -> dict:
        return {**self.setup(b), "evaluate": b.evaluate("msfm") + b.evaluate("iep"),
                "report": [b.report("msfm") for _ in range(10)]}

    def counts(self, b: Bench) -> dict:
        return {"examples": b.examples("msfm") + b.examples("iep"), "trials": 2 * b.n_trials()}

    def verify(self, b: Bench) -> None:
        b.check("report reproduces evaluate (msfm)", checks.same_report,
                b.latest["eval-msfm"], b.latest["report-msfm"])
        for model in ("msfm", "iep"):
            b.print_eers(model)
            if not b.smoke:  # one epoch on a tiny corpus is not held to criterion 6
                b.check(f"{model} SASV-EER below {SASV_EER_BOUNDS[model]}%", checks.eer_below,
                        b.latest[f"eval-{model}"] / "report.csv", "sasv",
                        SASV_EER_BOUNDS[model])


class TrainWide:
    setups = 5
    rounds = 10  # each: a set-up, evaluate baseline2, 5 reports

    def setup(self, b: Bench) -> dict:
        return {"setup": b.synth(WIDE_TRIALS, SMOKE_CORPUS)}

    def timed(self, b: Bench) -> dict:
        train = b.train("baseline2", "--set", f"epochs={WIDE_EPOCHS}")
        return {"train": train, "evaluate": b.evaluate("baseline2")}

    def repeat(self, b: Bench) -> dict:
        return {**self.setup(b), "evaluate": b.evaluate("baseline2"),
                "report": [b.report("baseline2") for _ in range(5)]}

    def counts(self, b: Bench) -> dict:
        return {"examples": b.examples("baseline2"), "trials": b.n_trials()}

    def verify(self, b: Bench) -> None:
        b.check("baseline2 epoch losses", checks.losses_fall,
                b.latest["baseline2"] / "train_log.txt")
        b.check("report reproduces evaluate (baseline2)", checks.same_report,
                b.latest["eval-baseline2"], b.latest["report-baseline2"])
        b.print_eers("baseline2")


class ScoreLarge:
    """Scoring only; the checkpoint it scores with is trained in set-up."""

    setups = 3
    rounds = 7  # each: one more report (~1.2 s)

    def setup(self, b: Bench) -> dict:
        synth = b.synth(LARGE_CORPUS, SMOKE_LARGE_CORPUS)
        train = b.train("msfm", "--set", "epochs=2")
        return {"setup": synth + train, "train": train}

    def timed(self, b: Bench) -> dict:
        return {"evaluate": b.evaluate("baseline1") + b.evaluate("msfm"),
                "report": [b.report("msfm")]}

    def repeat(self, b: Bench) -> dict:
        return {"report": [b.report("msfm")]}

    def counts(self, b: Bench) -> dict:
        return {"examples": b.examples("msfm"), "trials": 2 * b.n_trials()}

    def verify(self, b: Bench) -> None:
        b.check("report reproduces evaluate (msfm)", checks.same_report,
                b.latest["eval-msfm"], b.latest["report-msfm"])
        b.check("baseline1 equals a NumPy recomputation", checks.baseline1_matches,
                b.corpus, b.latest["eval-baseline1"] / "scores.txt")
        b.check("msfm subset re-scored alone", checks.subset_rescores, b.sasvkit,
                b.corpus, b.latest["msfm"] / "model.ckpt",
                b.latest["eval-msfm"] / "scores.txt", b.seed)
        b.print_eers("baseline1")
        b.print_eers("msfm")


WORKLOADS = {"train-fusion": TrainFusion, "train-wide": TrainWide, "score-large": ScoreLarge}


# --- runs ------------------------------------------------------------------


def end_to_end(workload, b: Bench, seconds: float) -> dict:
    before = [workload.setup(b) for _ in range(workload.setups)]
    if not machine.reset_peak_rss():
        print("note: the resident-set high-water mark could not be reset, "
              "so peak_rss_mb covers the set-up too")
    runs, peaks = [], []
    start = time.perf_counter()
    while not runs or time.perf_counter() - start < seconds:
        begin = time.perf_counter()
        record = workload.timed(b)
        record["wall"] = time.perf_counter() - begin
        peaks.append(machine.peak_rss_mb())  # before the repeats and the checks
        runs.append(record)
    repeats = [workload.repeat(b) for _ in range(workload.rounds)]
    workload.verify(b)
    counts = workload.counts(b)
    untimed = before + repeats
    setups = [r["setup"] for r in untimed if "setup" in r]
    # the train workloads train in the timed part, score-large in its set-ups
    trains = [r["train"] for r in runs + untimed if "train" in r]
    evaluates = [r["evaluate"] for r in runs + repeats if "evaluate" in r]
    reports = [t for r in untimed + runs for t in r.get("report", [])]
    print(f"set-ups {len(setups)}, timed iterations {len(runs)}, trainings {len(trains)} "
          f"({'timed' if 'train' in runs[0] else 'set-up'}), evaluate rounds "
          f"{len(evaluates)}, reports {len(reports)}")
    train_s = statistics.median(trains)
    evaluate_s = statistics.mean(evaluates)
    return {
        # a mean: the machine's speed flips between two levels for seconds at a
        # time, and a median of such samples jumps between the levels
        "setup_s": statistics.mean(setups),
        "wall_s": statistics.median(r["wall"] for r in runs),
        "train_s": train_s,
        "train_examples_per_s": counts["examples"] / train_s,
        "evaluate_s": evaluate_s,
        "eval_trials_per_s": counts["trials"] / evaluate_s,
        "report_s": statistics.mean(reports),
        "peak_rss_mb": max(peaks),
    }


def per_layer(workload, b: Bench, trace_file: Path) -> dict:
    machine_metrics, info = machine.measure(small=b.smoke)
    print(f"machine: last-level cache {info['llc_mib']:.0f} MiB, "
          f"copy arrays {info['copy_array_mib']:.0f} MiB")
    tracer = spans.Tracer()
    tracer.install()
    try:
        workload.setup(b)
        tracer.phase = "timed"
        tracer.overhead = 0.0
        start = time.perf_counter()
        workload.timed(b)
        traced_wall = time.perf_counter() - start
    finally:
        tracer.uninstall()
    workload.repeat(b)  # untraced; gives the checks the files they compare
    workload.verify(b)
    tracer.dump(trace_file)
    values, notes = spans.layer_metrics(tracer, traced_wall)
    for note in notes:
        print(f"trace: {note}")
    print(f"trace: traced wall {traced_wall:.3f} s, of which {tracer.overhead:.3f} s "
          f"in the tracer; spans in {trace_file.relative_to(ROOT)}")
    values.update(machine_metrics)
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny corpus and one epoch, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "sasvkit" / "cli.py").is_file() or not spec_path.is_file():
        print("error: run from the root of a sasvkit checkout (src/sasvkit and "
              "BENCHMARK.json are needed)", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    sys.path.insert(0, str(ROOT / "src"))
    import sasvkit.cli
    import sasvkit.data
    import sasvkit.models

    base = ROOT / ".benchwork"
    work = base / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    bench = Bench(sasvkit, work, args.seed, args.smoke)
    workload = WORKLOADS[args.workload]()
    print(f"workload {args.workload}: dataset seed {DATASET_SEED + args.seed}, "
          f"training seed {args.seed}, smoke {args.smoke}")
    print("machine: " + ", ".join(f"{k}={v}" for k, v in machine.library_info().items()))
    try:
        if args.trace:
            trace_file = base / f"trace-{args.workload}-seed{args.seed}.jsonl"
            values = per_layer(workload, bench, trace_file)
        else:
            values = end_to_end(workload, bench, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
