"""Acceptance gate: ten numbered criteria with pinned tolerances.

Each criterion is one test. Every test prints a single
``ACCEPTANCE <n> PASS/FAIL`` line with capture suspended so the verdicts stay
visible in a plain pytest run, then asserts, so a FAIL also fails the suite.
Criteria with runtime bounds measure and enforce them here.
"""

import dataclasses
import math
import os
import statistics
import time
from pathlib import Path

import numpy as np
import pytest

from sasvkit.cli import main as cli_main
from sasvkit.data import (
    EmbeddingStore,
    TrialRecord,
    load_embedding_store,
    write_embedding_store,
)
from sasvkit.metrics import ScoredTrial, compute_eer, evaluate_system, subset_trials
from sasvkit.models import (
    baseline2_batch_loss,
    iep_batch_loss,
    iep_project,
    load_model,
    make_baseline2,
    make_iep,
    make_msfm,
    msfm_batch_losses,
    pair_batch,
    save_model,
    score_trials,
    train_iep,
    train_msfm,
    triplet_loss,
)
from sasvkit.neuralcore import TrainConfig, cce_loss, grad_check
from sasvkit.sampling import SynthConfig, generate_synthetic, sample_training_pairs

README = Path(__file__).resolve().parent.parent / "README.md"


def verdict(capsys, num: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"ACCEPTANCE {num:2d} {status} - {detail}", flush=True)
    assert ok, f"criterion {num}: {detail}"


def small_corpus():
    """A fast full-dimension corpus for gradient and sampling checks."""
    return generate_synthetic(
        SynthConfig(n_speakers=6, utts_per_speaker=8, spoofs_per_speaker=6, seed=42)
    )


def test_criterion_01_gradients_match_finite_differences(capsys):
    start = time.perf_counter()
    dataset = small_corpus()
    pairs = sample_training_pairs(
        dataset.train_records, 12, np.random.default_rng(99)
    )
    ids = np.array([r.utterance_id for r in dataset.train_records], dtype=object)
    batch = pair_batch(pairs, ids, dataset.asv_store, dataset.cm_store)
    checks = []

    msfm = make_msfm(rng=np.random.default_rng(1))
    for index, selector in enumerate(("sssv", "sf", "total")):
        grads = msfm_batch_losses(msfm, batch, compute_grads=True, loss=selector)[3]

        def msfm_loss_value(sel=selector, idx=index):
            return msfm_batch_losses(msfm, batch, compute_grads=False, loss=sel)[idx]

        err = grad_check(
            msfm.tensors(),
            msfm_loss_value,
            grads,
            epsilon=1e-5,
            max_entries_per_tensor=20,
            rng=np.random.default_rng(7),
        )
        checks.append((f"fusion[{selector}]", err))

    # Triplet batch with both active and inactive hinges: the last two
    # positives nearly coincide with their anchors, which drives the
    # anchor-positive cosine to ~1 and switches those hinges off.
    rng = np.random.default_rng(5)
    anchor_asv = rng.normal(size=(6, 192))
    anchor_cm = rng.normal(size=(6, 160))
    positive_asv = anchor_asv + 0.01 * rng.normal(size=(6, 192))
    positive_cm = anchor_cm + 0.01 * rng.normal(size=(6, 160))
    positive_asv[:4] = rng.normal(size=(4, 192))
    positive_cm[:4] = rng.normal(size=(4, 160))
    negative_asv = rng.normal(size=(6, 192))
    negative_cm = rng.normal(size=(6, 160))

    iep = make_iep(rng=np.random.default_rng(2))

    def row_cosines(x, y):
        return np.sum(x * y, axis=1) / (
            np.linalg.norm(x, axis=1) * np.linalg.norm(y, axis=1)
        )

    anchors = iep_project(iep, anchor_asv, anchor_cm)
    hinge = (
        row_cosines(anchors, iep_project(iep, negative_asv, negative_cm))
        - row_cosines(anchors, iep_project(iep, positive_asv, positive_cm))
        + 0.5
    )
    assert 0 < int((hinge > 0).sum()) < hinge.size, "need mixed hinge activity"
    assert np.abs(hinge).min() > 1e-2, "hinge too close to its kink for FD"

    triplet_args = (
        anchor_asv, anchor_cm,
        positive_asv, positive_cm,
        negative_asv, negative_cm,
    )
    grads = iep_batch_loss(iep, *triplet_args, margin=0.5, compute_grads=True)[1]

    def triplet_loss_value():
        return iep_batch_loss(iep, *triplet_args, margin=0.5, compute_grads=False)[0]

    checks.append(
        (
            "triplet",
            grad_check(
                iep.tensors(),
                triplet_loss_value,
                grads,
                epsilon=1e-5,
                max_entries_per_tensor=20,
                rng=np.random.default_rng(8),
            ),
        )
    )

    baseline2 = make_baseline2(rng=np.random.default_rng(3))
    grads = baseline2_batch_loss(baseline2, batch, compute_grads=True)[1]

    def baseline2_loss_value():
        return baseline2_batch_loss(baseline2, batch, compute_grads=False)[0]

    checks.append(
        (
            "baseline2",
            grad_check(
                baseline2.tensors(),
                baseline2_loss_value,
                grads,
                epsilon=1e-5,
                max_entries_per_tensor=20,
                rng=np.random.default_rng(9),
            ),
        )
    )

    elapsed = time.perf_counter() - start
    worst_name, worst = max(checks, key=lambda item: item[1])
    ok = worst < 1e-4 and elapsed < 60.0
    verdict(
        capsys,
        1,
        ok,
        f"max FD relative error {worst:.2e} ({worst_name}; bound 1e-4) "
        f"across all blocks of both models and baseline2 in {elapsed:.1f}s (< 60s)",
    )


def brute_force_eer(positive_scores, negative_scores):
    """Loop-based threshold sweep, independent of the library implementation."""
    pos = [float(s) for s in positive_scores]
    neg = [float(s) for s in negative_scores]
    thresholds = sorted(set(pos + neg))
    thresholds.append(thresholds[-1] + 1.0)
    previous = None
    for theta in thresholds:
        far = sum(1 for s in neg if s >= theta) / len(neg)
        frr = sum(1 for s in pos if s < theta) / len(pos)
        d = far - frr
        if d <= 0.0:
            if d == 0.0:
                return far, theta
            theta0, far0, frr0 = previous
            d0 = far0 - frr0
            t = d0 / (d0 - d)
            return far0 + t * (far - far0), theta0 + t * (theta - theta0)
        previous = (theta, far, frr)
    raise AssertionError("curves never crossed")


def test_criterion_02_eer_matches_brute_force_oracle(capsys):
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(500):
        n_pos = int(rng.integers(1, 501))
        n_neg = int(rng.integers(1, 501))
        pos = rng.normal(0.5, 1.0, size=n_pos)
        neg = rng.normal(-0.5, 1.0, size=n_neg)
        if rng.integers(0, 2):  # quantize to force ties within and across sides
            pos = np.round(pos, 1)
            neg = np.round(neg, 1)
        if n_pos > 1 and n_neg > 1:  # exact cross-side tie
            neg[0] = pos[0]
        eer, thr = compute_eer(pos, neg)
        oracle_eer, oracle_thr = brute_force_eer(pos, neg)
        worst = max(worst, abs(eer - oracle_eer), abs(thr - oracle_thr))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-9 and elapsed < 10.0
    verdict(
        capsys,
        2,
        ok,
        f"500 score sets (sizes 2-1000, ties injected): max deviation "
        f"{worst:.2e} (< 1e-9) in {elapsed:.1f}s (< 10s)",
    )


def test_criterion_03_metric_subsets_have_exact_counts(capsys):
    trials = []
    for i in range(10):
        for label in ("target", "nontarget", "spoof"):
            trial = TrialRecord(f"S{i}", (f"E{i}",), f"T_{label}_{i}", label)
            trials.append(ScoredTrial(trial=trial, score=float(i)))
    counts = {}
    for metric in ("sv", "spf", "sasv"):
        positives, negatives = subset_trials(trials, metric)
        counts[metric] = (len(positives), len(negatives))
        for side in (positives, negatives):
            for item in side:
                if metric == "sv":
                    assert item.label != "spoof"
                if metric == "spf":
                    assert item.label != "nontarget"
    ok = counts == {"sv": (10, 10), "spf": (10, 10), "sasv": (10, 20)}
    verdict(
        capsys,
        3,
        ok,
        f"30-trial fixture: sv uses {sum(counts['sv'])}, spf {sum(counts['spf'])}, "
        f"sasv {sum(counts['sasv'])} trials (expected 20/20/30)",
    )


def test_criterion_04_closed_form_loss_values(capsys):
    deviations = [
        abs(cce_loss(np.zeros(2), np.array([1.0, 0.0])) - math.log(2.0)),
        abs(cce_loss(np.zeros(2), np.array([0.0, 1.0])) - math.log(2.0)),
        abs(triplet_loss([[1.0, 0.0]], [[1.0, 0.0]], [[-1.0, 0.0]], margin=0.5)),
        abs(triplet_loss([[1.0, 0.0]], [[0.0, 1.0]], [[0.0, 1.0]], margin=0.5) - 0.5),
        abs(
            triplet_loss(
                [[1.0, 0.0]], [[0.0, 1.0]], [[0.2, math.sqrt(0.96)]], margin=0.5
            )
            - 0.7
        ),
    ]
    worst = max(deviations)
    ok = worst < 1e-12
    verdict(
        capsys,
        4,
        ok,
        f"uniform-logit CCE = ln 2 and triplet cases 0/0.5/0.7: "
        f"max deviation {worst:.2e} (< 1e-12)",
    )


def test_criterion_05_pair_apportionment_is_exact(capsys):
    dataset = small_corpus()
    expected = (901, 499, 300, 300)
    observed = []
    for seed in (0, 1, 2):
        pairs = sample_training_pairs(
            dataset.train_records, 2000, np.random.default_rng(seed)
        )
        # column 2 holds each pair's index into PAIR_SCENARIOS: bonafide-same,
        # bonafide-diff, spoof-same, spoof-diff
        observed.append(tuple(int(n) for n in np.bincount(pairs[:, 2], minlength=4)))
    ok = all(counts == expected for counts in observed)
    verdict(
        capsys,
        5,
        ok,
        f"sample_training_pairs(2000) scenario counts {observed[0]} on every "
        f"run (expected {expected})",
    )


def test_criterion_06_synthetic_separation(capsys):
    start = time.perf_counter()
    dataset = generate_synthetic(SynthConfig())
    stores = (dataset.asv_store, dataset.cm_store)

    def sasv_eer(system):
        scored = score_trials(system, dataset.eval_trials, *stores)
        return evaluate_system(scored).eer_percent["sasv"]

    asv_only = sasv_eer("asv-only")
    config = TrainConfig(seed=0)
    msfm, _ = train_msfm(dataset.train_records, *stores, config)
    iep, _ = train_iep(dataset.train_records, *stores, config)
    msfm_eer = sasv_eer(msfm)
    iep_eer = sasv_eer(iep)
    elapsed = time.perf_counter() - start
    ok = asv_only > 20.0 and msfm_eer < 5.0 and iep_eer < 8.0 and elapsed < 300.0
    verdict(
        capsys,
        6,
        ok,
        f"eval SASV-EER asv-only {asv_only:.2f}% (> 20), trained fusion "
        f"{msfm_eer:.2f}% (< 5), trained projector {iep_eer:.2f}% (< 8) "
        f"in {elapsed:.0f}s (< 300s)",
    )


def test_criterion_07_auxiliary_score_helps_sv(capsys):
    dataset = generate_synthetic(SynthConfig())
    stores = (dataset.asv_store, dataset.cm_store)
    sv_with, sv_without = [], []
    for seed in (0, 1, 2):
        config = TrainConfig(seed=seed)
        for use_sssv, bucket in ((True, sv_with), (False, sv_without)):
            model, _ = train_msfm(
                dataset.train_records, *stores, config, use_sssv_score=use_sssv
            )
            scored = score_trials(model, dataset.eval_trials, *stores)
            bucket.append(evaluate_system(scored).eer_percent["sv"])
    median_with = statistics.median(sv_with)
    median_without = statistics.median(sv_without)
    ok = median_with <= median_without
    verdict(
        capsys,
        7,
        ok,
        f"median SV-EER over 3 seeds: with auxiliary score {median_with:.2f}% "
        f"<= without {median_without:.2f}% (non-strict)",
    )


SMALL_CLI_SYNTH = [
    "--set", "n_speakers=6",
    "--set", "utts_per_speaker=8",
    "--set", "spoofs_per_speaker=6",
    "--set", "asv_dim=16",
    "--set", "cm_dim=12",
    "--set", "asv_channel_dims=4",
]


def test_criterion_08_cli_runs_are_byte_deterministic(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    assert cli_main(["synth", "--out", str(corpus), "--seed", "11", *SMALL_CLI_SYNTH]) == 0
    runs = []
    for name in ("one", "two"):
        train_out = tmp_path / name / "train"
        eval_out = tmp_path / name / "eval"
        assert cli_main(
            [
                "train",
                "--model", "msfm",
                "--asv-store", str(corpus / "asv.emb"),
                "--cm-store", str(corpus / "cm.emb"),
                "--protocol", str(corpus / "protocol.txt"),
                "--out", str(train_out),
                "--seed", "21",
                "--set", "epochs=2",
                "--set", "samples_per_epoch=200",
            ]
        ) == 0
        assert cli_main(
            [
                "evaluate",
                "--model", "msfm",
                "--checkpoint", str(train_out / "model.ckpt"),
                "--asv-store", str(corpus / "asv.emb"),
                "--cm-store", str(corpus / "cm.emb"),
                "--trials", str(corpus / "trials_eval.txt"),
                "--enrollment", str(corpus / "enrollment.txt"),
                "--out", str(eval_out),
            ]
        ) == 0
        runs.append((train_out, eval_out))
    (train_a, eval_a), (train_b, eval_b) = runs
    same_checkpoint = (
        (train_a / "model.ckpt").read_bytes() == (train_b / "model.ckpt").read_bytes()
    )
    report_names = ("scores.txt", "report.txt", "report.csv", "histogram.csv")
    same_reports = all(
        (eval_a / name).read_bytes() == (eval_b / name).read_bytes()
        for name in report_names
    )
    ok = same_checkpoint and same_reports
    verdict(
        capsys,
        8,
        ok,
        f"repeated train+evaluate: checkpoint byte-identical {same_checkpoint}, "
        f"all report files identical {same_reports}",
    )


def test_criterion_09_format_round_trips(tmp_path, capsys):
    rng = np.random.default_rng(31)
    store = EmbeddingStore(24, "asv")
    for i in range(40):
        store.add(f"utt{i:03d}", rng.normal(size=24))

    write_embedding_store(store, tmp_path / "store.emb", fmt="binary")
    binary = load_embedding_store(tmp_path / "store.emb", "asv")
    binary_exact = all(
        np.array_equal(binary.get(utt), vec) for utt, vec in store.items()
    )

    write_embedding_store(store, tmp_path / "store.tsv", fmt="tsv")
    tsv = load_embedding_store(tmp_path / "store.tsv", "asv")
    tsv_worst = max(
        float(np.abs(tsv.get(utt) - vec).max()) for utt, vec in store.items()
    )

    checkpoints_exact = True
    for factory in (make_msfm, make_iep, make_baseline2):
        model = factory(rng=np.random.default_rng(4))
        save_model(model, tmp_path / "model.ckpt")
        loaded = load_model(tmp_path / "model.ckpt")
        checkpoints_exact = checkpoints_exact and all(
            np.array_equal(a, b)
            for a, b in zip(model.tensors(), loaded.tensors())
        )

    ok = binary_exact and checkpoints_exact and tsv_worst <= 1e-6
    verdict(
        capsys,
        9,
        ok,
        f"binary store bit-exact {binary_exact}, checkpoints bit-exact "
        f"{checkpoints_exact}, TSV max error {tsv_worst:.2e} (<= 1e-6)",
    )


def test_criterion_10_external_embeddings_path(tmp_path, capsys):
    documented = (
        README.is_file() and "bring your own embeddings" in README.read_text().lower()
    )

    # The documented path at toy scale: stores written by an external tool
    # (plain TSV), hand-written enrollment and trial lists, no generator
    # involvement. The same commands accept full-scale embedding dumps.
    external = tmp_path / "external"
    external.mkdir()
    rng = np.random.default_rng(6)
    asv_lines, cm_lines = [], []
    utterances = {}
    for speaker in ("alpha", "bravo"):
        base = rng.normal(size=8)
        for k in range(4):
            utt = f"{speaker}-{k}"
            utterances[utt] = speaker
            asv_lines.append(
                utt
                + "\t"
                + "\t".join(repr(float(v)) for v in base + 0.1 * rng.normal(size=8))
            )
            cm_lines.append(
                utt + "\t" + "\t".join(repr(float(v)) for v in rng.normal(size=6) + 3.0)
            )
    (external / "asv.tsv").write_text("\n".join(asv_lines) + "\n")
    (external / "cm.tsv").write_text("\n".join(cm_lines) + "\n")
    (external / "enrollment.txt").write_text("alpha alpha-0\nbravo bravo-0\n")
    (external / "trials.txt").write_text(
        "alpha alpha-1 target\nalpha alpha-2 target\n"
        "alpha bravo-1 nontarget\nalpha bravo-2 spoof\n"
        "bravo bravo-3 target\nbravo alpha-3 nontarget\n"
    )
    out = tmp_path / "out"
    code = cli_main(
        [
            "evaluate",
            "--model", "baseline1",
            "--asv-store", str(external / "asv.tsv"),
            "--cm-store", str(external / "cm.tsv"),
            "--trials", str(external / "trials.txt"),
            "--enrollment", str(external / "enrollment.txt"),
            "--out", str(out),
        ]
    )
    report = (out / "report.txt").read_text() if code == 0 else ""
    toy_ok = code == 0 and all(
        f"{metric}_eer_percent" in report for metric in ("sv", "spf", "sasv")
    )

    byoe_dir = os.environ.get("SASVKIT_BYOE_DIR")
    note = "full-scale run skipped (SASVKIT_BYOE_DIR unset)"
    full_ok = True
    if byoe_dir:
        base = Path(byoe_dir)
        code = cli_main(
            [
                "evaluate",
                "--model", "baseline1",
                "--asv-store", str(base / "asv.emb"),
                "--cm-store", str(base / "cm.emb"),
                "--trials", str(base / "trials.txt"),
                "--enrollment", str(base / "enrollment.txt"),
                "--out", str(tmp_path / "byoe"),
            ]
        )
        full_ok = code == 0
        note = f"full-scale run exit code {code}"

    ok = documented and toy_ok and full_ok
    verdict(
        capsys,
        10,
        ok,
        f"documented in README {documented}, external TSV pipeline reports "
        f"all three EERs {toy_ok}, {note}",
    )
