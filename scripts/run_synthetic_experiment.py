#!/usr/bin/env python3
"""Train every back-end on one synthetic corpus and tabulate held-out EERs.

Generates the default synthetic embedding corpus, trains each learnable
back-end on its training partition, scores the evaluation trials with every
system (including the training-free baselines), and prints an EER table.
With --out, each system's score file and report files are written under
<out>/<system>/ for later inspection with the `report` subcommand.
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from sasvkit.cli import write_score_file
from sasvkit.metrics import METRIC_NAMES, evaluate_system, write_report
from sasvkit.models import SYSTEMS, score_trials
from sasvkit.neuralcore import TrainConfig
from sasvkit.sampling import SynthConfig, generate_synthetic


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1234, help="dataset seed")
    parser.add_argument("--train-seed", type=int, default=0, help="training seed")
    parser.add_argument("--n-speakers", type=int, default=50)
    parser.add_argument("--epochs", type=int, default=15)
    parser.add_argument("--out", type=Path, default=None,
                        help="directory for per-system scores and reports")
    return parser.parse_args()


def _eer_cell(eer):
    return f"{'absent':>12}" if eer is None else f"{eer:>12.2f}"


def main():
    args = parse_args()
    synth = SynthConfig(seed=args.seed, n_speakers=args.n_speakers)
    print(f"generating synthetic corpus (seed {args.seed}, "
          f"{args.n_speakers} speakers) ...")
    dataset = generate_synthetic(synth)
    config = TrainConfig(seed=args.train_seed, epochs=args.epochs)
    print(f"{len(dataset.train_records)} train utterances, "
          f"{len(dataset.eval_trials)} eval trials")

    systems = [("asv-only", "asv-only")]
    for name, system in SYSTEMS.items():
        if system.train is None:
            systems.append((name, name))
            continue
        start = time.perf_counter()
        model, history = system.train(
            dataset.train_records, dataset.asv_store, dataset.cm_store,
            config, **system.options,
        )
        final = {k: v for k, v in history[-1].items() if k != "epoch"}
        print(f"trained {name} in {time.perf_counter() - start:.1f}s "
              f"(final {final})")
        systems.append((name, model))

    rows = []
    for name, system in systems:
        scored = score_trials(system, dataset.eval_trials,
                              dataset.asv_store, dataset.cm_store)
        report = evaluate_system(scored)
        rows.append((name, report))
        if args.out is not None:
            out = args.out / name
            out.mkdir(parents=True, exist_ok=True)
            write_score_file(scored, out / "scores.txt")
            write_report(report, out)

    header = f"{'system':<14}" + "".join(f"{m.upper() + '-EER%':>12}" for m in METRIC_NAMES)
    print()
    print(header)
    print("-" * len(header))
    for name, report in rows:
        cells = "".join(_eer_cell(report.eer_percent[m]) for m in METRIC_NAMES)
        print(f"{name:<14}{cells}")
    if args.out is not None:
        print(f"\nscores and reports written under {args.out}/")


if __name__ == "__main__":
    main()
