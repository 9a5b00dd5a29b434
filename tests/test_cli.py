import random
import re
import resource
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sasvkit import cli
from sasvkit.cli import main, parse_kv_text, parse_score_file, UsageError
from sasvkit.data import (
    TRIAL_LABELS,
    EmbeddingStore,
    load_embedding_store,
    parse_cm_protocol,
    parse_enrollment_map,
    parse_trial_list,
    write_embedding_store,
)
from sasvkit.metrics import ScoredTrials, evaluate_system, format_histogram_csv, format_report_text
from sasvkit.models import make_iep, make_msfm, save_model, score_tables
from test_data import FUZZ_ENROLLMENT, garbled_text

SYNTH_ARTIFACTS = (
    "protocol.txt",
    "enrollment.txt",
    "trials_dev.txt",
    "trials_eval.txt",
    "asv.emb",
    "cm.emb",
    "resolved_config.txt",
)

SMALL_SYNTH = [
    "--set", "n_speakers=6",
    "--set", "utts_per_speaker=8",
    "--set", "spoofs_per_speaker=6",
    "--set", "asv_dim=16",
    "--set", "cm_dim=12",
    "--set", "asv_channel_dims=4",
]

FAST_TRAIN = [
    "--set", "epochs=2",
    "--set", "samples_per_epoch=200",
    "--set", "batch_size=32",
]


def error_line(capfd) -> str:
    """The one ERROR line a failed in-process command wrote to stderr."""
    (line,) = [l for l in capfd.readouterr().err.splitlines() if l.startswith("ERROR ")]
    assert line.startswith("ERROR sasvkit: "), line
    return line


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus")
    assert main(["synth", "--out", str(out), "--seed", "11", *SMALL_SYNTH]) == 0
    return out


@pytest.fixture(scope="module")
def baseline2_run(tmp_path_factory, corpus):
    out = tmp_path_factory.mktemp("baseline2_run")
    code = main(
        [
            "train",
            "--model", "baseline2",
            "--asv-store", str(corpus / "asv.emb"),
            "--cm-store", str(corpus / "cm.emb"),
            "--protocol", str(corpus / "protocol.txt"),
            "--out", str(out),
            "--seed", "3",
            *FAST_TRAIN,
        ]
    )
    assert code == 0
    return out


def evaluate_args(corpus, out, model="baseline1", checkpoint=None, trials=None):
    args = [
        "evaluate",
        "--model", model,
        "--asv-store", str(corpus / "asv.emb"),
        "--cm-store", str(corpus / "cm.emb"),
        "--trials", str(trials or corpus / "trials_eval.txt"),
        "--enrollment", str(corpus / "enrollment.txt"),
        "--out", str(out),
    ]
    if checkpoint is not None:
        args += ["--checkpoint", str(checkpoint)]
    return args


class TestSynth:
    def test_writes_all_artifacts(self, corpus):
        for name in SYNTH_ARTIFACTS:
            assert (corpus / name).is_file(), name

    def test_artifacts_are_mutually_consistent(self, corpus):
        asv = load_embedding_store(corpus / "asv.emb", "asv")
        cm = load_embedding_store(corpus / "cm.emb", "cm")
        enrollment = parse_enrollment_map((corpus / "enrollment.txt").read_text())
        for name in ("trials_dev.txt", "trials_eval.txt"):
            trials = parse_trial_list((corpus / name).read_text(), enrollment)
            assert trials
            for trial in trials:
                assert trial.test_utterance_id in asv
                assert trial.test_utterance_id in cm
                for utt in trial.enroll_utterance_ids:
                    assert utt in asv

    def test_same_seed_is_byte_identical(self, corpus, tmp_path):
        again = tmp_path / "again"
        assert main(["synth", "--out", str(again), "--seed", "11", *SMALL_SYNTH]) == 0
        for name in SYNTH_ARTIFACTS:
            assert (again / name).read_bytes() == (corpus / name).read_bytes(), name

    def test_single_speaker_is_a_config_error(self, tmp_path):
        code = main(["synth", "--out", str(tmp_path / "x"), "--set", "n_speakers=1"])
        assert code == 2


class TestTrain:
    def test_writes_checkpoint_and_log(self, baseline2_run):
        assert (baseline2_run / "model.ckpt").is_file()
        log = (baseline2_run / "train_log.txt").read_text()
        assert "model = baseline2" in log
        assert "seed = 3" in log
        assert log.count("epoch ") == 2
        assert "loss_cce=" in log

    def test_baseline1_is_a_usage_error(self, corpus, tmp_path):
        code = main(
            [
                "train",
                "--model", "baseline1",
                "--asv-store", str(corpus / "asv.emb"),
                "--cm-store", str(corpus / "cm.emb"),
                "--protocol", str(corpus / "protocol.txt"),
                "--out", str(tmp_path / "x"),
            ]
        )
        assert code == 2

    def test_unknown_kind_is_a_usage_error(self, corpus, tmp_path):
        code = main(
            [
                "train",
                "--set", "model=transformer",
                "--asv-store", str(corpus / "asv.emb"),
                "--cm-store", str(corpus / "cm.emb"),
                "--protocol", str(corpus / "protocol.txt"),
                "--out", str(tmp_path / "x"),
            ]
        )
        assert code == 2

    def test_unknown_kind_via_flag_fails_argparse(self, capsys):
        assert main(["train", "--model", "transformer"]) == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_missing_store_path_is_a_usage_error(self, corpus, tmp_path):
        code = main(
            [
                "train",
                "--model", "baseline2",
                "--asv-store", str(tmp_path / "nope.emb"),
                "--cm-store", str(corpus / "cm.emb"),
                "--protocol", str(corpus / "protocol.txt"),
                "--out", str(tmp_path / "x"),
            ]
        )
        assert code == 2


class TestEvaluate:
    def test_baseline1_needs_no_checkpoint(self, corpus, tmp_path):
        out = tmp_path / "b1"
        assert main(evaluate_args(corpus, out)) == 0
        for name in ("scores.txt", "report.txt", "report.csv", "histogram.csv"):
            assert (out / name).is_file(), name

    def test_baseline1_rejects_a_checkpoint(self, corpus, baseline2_run, tmp_path):
        args = evaluate_args(
            corpus, tmp_path / "x", checkpoint=baseline2_run / "model.ckpt"
        )
        assert main(args) == 2

    def test_scores_follow_trial_list_order(self, corpus, tmp_path):
        out = tmp_path / "b1"
        assert main(evaluate_args(corpus, out)) == 0
        enrollment = parse_enrollment_map((corpus / "enrollment.txt").read_text())
        trials = parse_trial_list((corpus / "trials_eval.txt").read_text(), enrollment)
        lines = (out / "scores.txt").read_text().splitlines()
        assert len(lines) == len(trials)
        for line, trial in zip(lines, trials):
            speaker, utterance, raw = line.split()
            assert speaker == trial.enroll_speaker_id
            assert utterance == trial.test_utterance_id
            float(raw)

    def test_trained_checkpoint_reports_three_eers(self, corpus, baseline2_run, tmp_path):
        out = tmp_path / "eval"
        args = evaluate_args(
            corpus, out, model="baseline2", checkpoint=baseline2_run / "model.ckpt"
        )
        assert main(args) == 0
        report = (out / "report.txt").read_text()
        for metric in ("sv_eer_percent", "spf_eer_percent", "sasv_eer_percent"):
            assert metric in report

    def test_checkpoint_kind_mismatch_is_a_usage_error(self, corpus, tmp_path):
        ckpt = tmp_path / "iep.ckpt"
        save_model(make_iep(asv_dim=16, cm_dim=12), ckpt)
        args = evaluate_args(corpus, tmp_path / "x", model="msfm", checkpoint=ckpt)
        assert main(args) == 2

    def test_missing_utterance_lists_ids(self, corpus, tmp_path, capfd):
        trials = tmp_path / "trials.txt"
        trials.write_text("S0000 ghost-a target\nS0000 ghost-b spoof\n")
        args = evaluate_args(corpus, tmp_path / "x", trials=trials)
        assert main(args) == 1
        message = error_line(capfd)
        assert "ghost-a" in message and "ghost-b" in message

    def test_gaps_in_both_stores_are_one_line(self, corpus, tmp_path, run_cli):
        enrollment = parse_enrollment_map((corpus / "enrollment.txt").read_text())
        (tmp_path / "enrollment.txt").write_text(
            f"S0000 lost,{enrollment['S0000'][0]}\nS0001 {enrollment['S0001'][0]}\n")
        trials = tmp_path / "trials.txt"
        trials.write_text("S0000 ghost target\nS0001 ghost spoof\nS0001 phantom nontarget\n")
        args = evaluate_args(corpus, tmp_path / "x", trials=trials)
        args[args.index("--enrollment") + 1] = str(tmp_path / "enrollment.txt")
        one_error_line(run_cli(*args), "5 embedding(s) missing: ghost (asv), ghost (cm), "
                                       "lost (asv), phantom (asv), phantom (cm)")

    @pytest.mark.parametrize("dims, message", [
        ((17, 12), "asv store dimension 16 does not match model (17)"),
        ((16, 11), "cm store dimension 12 does not match model (11)"),
    ])
    def test_store_dimension_mismatch_names_the_store(self, corpus, tmp_path, run_cli,
                                                      dims, message):
        ckpt = tmp_path / "msfm.ckpt"
        save_model(make_msfm(*dims), ckpt)
        args = evaluate_args(corpus, tmp_path / "x", model="msfm", checkpoint=ckpt)
        one_error_line(run_cli(*args), message)

    def test_trial_list_is_read_before_the_stores(self, corpus, tmp_path, run_cli):
        (tmp_path / "bad.emb").write_bytes(b"SASVEMB1")
        trials = tmp_path / "trials.txt"
        trials.write_text("S0000 x target\nS0000 y\n")
        args = evaluate_args(corpus, tmp_path / "x", trials=trials)
        args[args.index("--asv-store") + 1] = str(tmp_path / "bad.emb")
        one_error_line(run_cli(*args), "line 2: expected 3 columns, got 2")
        trials.write_text("S0000 x target\n")
        one_error_line(run_cli(*args), "truncated store header")

    def test_malformed_checkpoint_logs_one_error_line(self, corpus, tmp_path, capfd):
        # in-process: the package logger writes to stderr whatever the root logger holds
        ckpt = tmp_path / "bad.ckpt"
        ckpt.write_bytes(b"SASVMDL1\x01")
        args = evaluate_args(corpus, tmp_path / "x", model="msfm", checkpoint=ckpt)
        capfd.readouterr()
        assert main(args) == 1
        lines = capfd.readouterr().err.splitlines()
        assert lines == ["ERROR sasvkit: truncated checkpoint header"]

    def test_cm_fallbacks_are_logged_not_written(self, corpus, tmp_path, capfd):
        enrollment = parse_enrollment_map((corpus / "enrollment.txt").read_text())
        cm = load_embedding_store(corpus / "cm.emb", "cm")
        partial = EmbeddingStore(cm.dim, "cm")
        for utt, vec in cm.items():
            if utt not in enrollment["S0000"]:
                partial.add(utt, vec)
        write_embedding_store(partial, tmp_path / "cm.emb")
        capfd.readouterr()
        assert main(evaluate_args(corpus, tmp_path / "full")) == 0
        assert "CM embedding" not in capfd.readouterr().err
        args = evaluate_args(corpus, tmp_path / "eval")
        args[args.index("--cm-store") + 1] = str(tmp_path / "cm.emb")
        assert main(args) == 0
        err = capfd.readouterr().err
        assert "INFO sasvkit: evaluate: 1 enrollment(s) have no CM embedding" in err
        report = [
            "report", "--scores", str(tmp_path / "eval" / "scores.txt"),
            "--trials", str(corpus / "trials_eval.txt"),
            "--enrollment", str(corpus / "enrollment.txt"), "--out", str(tmp_path / "report"),
        ]
        assert main(report) == 0
        assert "CM embedding" not in capfd.readouterr().err
        for name in ("report.txt", "report.csv", "histogram.csv"):
            assert (tmp_path / "report" / name).read_bytes() == (
                tmp_path / "eval" / name).read_bytes(), name


class TestEvaluateMemory:
    """evaluate loads, resolves and drops one store at a time."""

    N_UTTS, ASV_DIM, CM_DIM = 10_000, 128, 96

    @pytest.fixture(scope="class")
    def wide_stores(self, tmp_path_factory):
        # stores that dwarf the trial tables: 10,000 utterances, 12 trials
        out = tmp_path_factory.mktemp("wide_stores")
        rng = np.random.default_rng(4)
        ids = [f"U{i:05d}" for i in range(self.N_UTTS)]
        for kind, dim in (("asv", self.ASV_DIM), ("cm", self.CM_DIM)):
            store = EmbeddingStore._from_matrix(kind, ids, rng.standard_normal((len(ids), dim)))
            write_embedding_store(store, out / f"{kind}.emb")
        (out / "enrollment.txt").write_text("".join(
            f"S{s} U{2 * s:05d},U{2 * s + 1:05d}\n" for s in range(4)))
        (out / "trials.txt").write_text("".join(
            f"S{s} U{100 + t:05d} {TRIAL_LABELS[(s + t) % 3]}\n"
            for s in range(4) for t in range(3)))
        return out

    def args(self, corpus, out):
        return evaluate_args(corpus, out, trials=corpus / "trials.txt")

    def test_peak_stays_below_the_two_store_matrices(self, wide_stores, tmp_path):
        matrices = 4 * self.N_UTTS * (self.ASV_DIM + self.CM_DIM)
        tracemalloc.start()
        try:
            assert main(self.args(wide_stores, tmp_path / "eval")) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < matrices, (peak, matrices)

    def test_one_store_is_alive_at_a_time_and_none_while_scoring(self, wide_stores, tmp_path,
                                                                 monkeypatch):
        live = weakref.WeakSet()
        seen = []

        def load(path, kind):
            seen.append((kind, len(live)))
            store = load_embedding_store(path, kind)
            live.add(store)
            return store

        def score(*args):
            seen.append(("score", len(live)))
            return score_tables(*args)

        monkeypatch.setattr(cli, "load_embedding_store", load)
        monkeypatch.setattr(cli, "score_tables", score)
        assert main(self.args(wide_stores, tmp_path / "eval")) == 0
        assert seen == [("asv", 0), ("cm", 0), ("score", 0)]


class TestAbsentMetric:
    def test_trials_without_spoofs_log_absent_spf_eer(self, corpus, tmp_path, run_cli):
        trials = tmp_path / "no_spoof.txt"
        lines = (corpus / "trials_eval.txt").read_text().splitlines()
        trials.write_text("\n".join(l for l in lines if l.split()[-1] != "spoof") + "\n")
        evaluated = run_cli(*evaluate_args(corpus, tmp_path / "eval", trials=trials))
        reported = run_cli(
            "report",
            "--scores", tmp_path / "eval" / "scores.txt",
            "--trials", trials,
            "--enrollment", corpus / "enrollment.txt",
            "--out", tmp_path / "report",
        )
        for result in (evaluated, reported):
            assert result.returncode == 0, result.stderr
            assert "Logging error" not in result.stderr
            assert "Traceback" not in result.stderr
            assert "SPF EER absent" in result.stderr


class TestReport:
    @pytest.fixture()
    def evaluated(self, corpus, tmp_path):
        out = tmp_path / "eval"
        assert main(evaluate_args(corpus, out)) == 0
        return out

    def report_args(self, corpus, scores, out):
        return [
            "report",
            "--scores", str(scores),
            "--trials", str(corpus / "trials_eval.txt"),
            "--enrollment", str(corpus / "enrollment.txt"),
            "--out", str(out),
        ]

    def test_matches_evaluate_exactly(self, corpus, evaluated, tmp_path):
        out = tmp_path / "report"
        assert main(self.report_args(corpus, evaluated / "scores.txt", out)) == 0
        for name in ("report.txt", "report.csv", "histogram.csv"):
            assert (out / name).read_bytes() == (evaluated / name).read_bytes(), name

    def test_coverage_gap_is_an_error(self, corpus, evaluated, tmp_path, capfd):
        clipped = tmp_path / "clipped.txt"
        lines = (evaluated / "scores.txt").read_text().splitlines()
        clipped.write_text("\n".join(lines[1:]) + "\n")
        assert main(self.report_args(corpus, clipped, tmp_path / "x")) == 1
        assert "missing" in error_line(capfd)

    def test_malformed_line_reports_its_number(self, corpus, evaluated, tmp_path, capfd):
        broken = tmp_path / "broken.txt"
        lines = (evaluated / "scores.txt").read_text().splitlines()
        lines[2] = "S0000 S0000_B007 not-a-number"
        broken.write_text("\n".join(lines) + "\n")
        assert main(self.report_args(corpus, broken, tmp_path / "x")) == 1
        assert "line 3" in error_line(capfd)

    def test_conflicting_duplicate_is_an_error(self, corpus, evaluated, tmp_path, capfd):
        doubled = tmp_path / "doubled.txt"
        lines = (evaluated / "scores.txt").read_text().splitlines()
        speaker, utterance, _ = lines[0].split()
        lines.append(f"{speaker} {utterance} 123.0")
        doubled.write_text("\n".join(lines) + "\n")
        assert main(self.report_args(corpus, doubled, tmp_path / "x")) == 1
        assert "conflicting" in error_line(capfd)

    def test_exact_duplicate_is_tolerated(self, corpus, evaluated, tmp_path):
        doubled = tmp_path / "doubled.txt"
        lines = (evaluated / "scores.txt").read_text().splitlines()
        doubled.write_text("\n".join(lines + [lines[0]]) + "\n")
        assert main(self.report_args(corpus, doubled, tmp_path / "x")) == 0

    def test_evaluates_own_file_is_joined_by_position(self, corpus, evaluated, tmp_path,
                                                      monkeypatch):
        def keyed(*args):
            raise AssertionError("the keyed path was taken")

        monkeypatch.setattr(cli, "_keyed_scores", keyed)
        assert main(self.report_args(corpus, evaluated / "scores.txt", tmp_path / "r")) == 0

    def test_shuffled_file_reports_byte_identically(self, corpus, evaluated, tmp_path):
        lines = (evaluated / "scores.txt").read_text().splitlines()
        random.Random(0).shuffle(lines)
        shuffled = tmp_path / "shuffled.txt"
        shuffled.write_text("\n".join(lines) + "\n")
        out = tmp_path / "report"
        assert main(self.report_args(corpus, shuffled, out)) == 0
        for name in ("report.txt", "report.csv", "histogram.csv"):
            assert (out / name).read_bytes() == (evaluated / name).read_bytes(), name

    def rewritten(self, evaluated, path, score) -> None:
        """Write evaluate's score file with each score ``v`` of line ``i`` as ``score(i, v)``."""
        rows = map(str.split, (evaluated / "scores.txt").read_text().splitlines())
        path.write_text("".join(f"{s} {u} {score(i, float(v))!r}\n"
                                for i, (s, u, v) in enumerate(rows)))

    def test_scores_beyond_2_pow_53_keep_their_eers(self, corpus, evaluated, tmp_path,
                                                    run_cli):
        # a power of two scales every score exactly, so every EER stays the same
        scaled = tmp_path / "scaled.txt"
        self.rewritten(evaluated, scaled, lambda i, v: v * 2.0**60)
        result = run_cli(*self.report_args(corpus, scaled, tmp_path / "r"))
        assert result.returncode == 0, result.stderr
        assert all(l.startswith("INFO sasvkit: report: ") for l in result.stderr.splitlines())

        def eers(out):
            return [row.split(",")[1] for row in (out / "report.csv").read_text().splitlines()]

        assert eers(tmp_path / "r") == eers(evaluated)

    def test_scores_offset_by_1e17_report_finite_eers(self, corpus, evaluated, tmp_path,
                                                      run_cli):
        shifted = tmp_path / "shifted.txt"
        self.rewritten(evaluated, shifted, lambda i, v: v + 1e17)
        result = run_cli(*self.report_args(corpus, shifted, tmp_path / "r"))
        assert result.returncode == 0, result.stderr
        assert all(l.startswith("INFO sasvkit: report: ") for l in result.stderr.splitlines())
        assert "nan" not in (tmp_path / "r" / "report.txt").read_text()

    @pytest.mark.parametrize("value", [1e17, -1e17, 1.7976931348623157e308])
    def test_equal_scores_beyond_2_pow_53_get_increasing_edges(self, corpus, evaluated,
                                                                tmp_path, run_cli, value):
        equal = tmp_path / "equal.txt"
        self.rewritten(evaluated, equal, lambda i, v: value)
        result = run_cli(*self.report_args(corpus, equal, tmp_path / "r"))
        assert result.returncode == 0, result.stderr
        rows = [line.split(",") for line in
                (tmp_path / "r" / "histogram.csv").read_text().splitlines()[1:]]
        n_trials = len(equal.read_text().splitlines())
        assert len(rows) == 3 * 30
        assert sum(int(count) for *_, count in rows) == n_trials
        for label in TRIAL_LABELS:
            bins = [(float(low), float(high), int(count))
                    for name, low, high, count in rows if name == label]
            assert all(low < high for low, high, _ in bins)
            assert all(a[1] == b[0] for a, b in zip(bins, bins[1:]))
            assert all(low <= value <= high for low, high, count in bins if count)

    def test_span_wider_than_float64_is_one_line(self, corpus, evaluated, tmp_path, run_cli):
        wide = tmp_path / "wide.txt"
        self.rewritten(evaluated, wide, lambda i, v: 1e308 if i % 2 else -1e308)
        result = run_cli(*self.report_args(corpus, wide, tmp_path / "r"))
        one_error_line(result, "scores span -1e+308 to 1e+308, too wide for float64 arithmetic")


class TestDeterminism:
    def test_train_then_evaluate_twice_is_byte_identical(self, corpus, tmp_path):
        outputs = []
        for run in ("one", "two"):
            train_out = tmp_path / run / "train"
            eval_out = tmp_path / run / "eval"
            code = main(
                [
                    "train",
                    "--model", "msfm",
                    "--asv-store", str(corpus / "asv.emb"),
                    "--cm-store", str(corpus / "cm.emb"),
                    "--protocol", str(corpus / "protocol.txt"),
                    "--out", str(train_out),
                    "--seed", "21",
                    *FAST_TRAIN,
                ]
            )
            assert code == 0
            args = evaluate_args(
                corpus, eval_out, model="msfm", checkpoint=train_out / "model.ckpt"
            )
            assert main(args) == 0
            outputs.append((train_out, eval_out))
        (train_a, eval_a), (train_b, eval_b) = outputs
        for name in ("model.ckpt", "train_log.txt", "resolved_config.txt"):
            assert (train_a / name).read_bytes() == (train_b / name).read_bytes(), name
        for name in ("scores.txt", "report.txt", "report.csv", "histogram.csv"):
            assert (eval_a / name).read_bytes() == (eval_b / name).read_bytes(), name


class TestConfigPlumbing:
    def test_file_set_and_flag_precedence(self, corpus, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text(
            "# training settings\n"
            "epochs = 5\n"
            "batch_size = 32\n"
            "seed = 1\n"
            "samples_per_epoch = 100\n"
        )
        out = tmp_path / "run"
        code = main(
            [
                "train",
                "--config", str(config),
                "--set", "epochs=2",
                "--seed", "9",
                "--model", "baseline2",
                "--asv-store", str(corpus / "asv.emb"),
                "--cm-store", str(corpus / "cm.emb"),
                "--protocol", str(corpus / "protocol.txt"),
                "--out", str(out),
            ]
        )
        assert code == 0
        resolved = parse_kv_text((out / "resolved_config.txt").read_text())
        assert resolved["epochs"] == "2"
        assert resolved["seed"] == "9"
        assert resolved["batch_size"] == "32"
        assert resolved["command"] == "train"
        assert "out" not in resolved

    def test_unknown_setting_is_a_usage_error(self, tmp_path):
        code = main(
            ["synth", "--out", str(tmp_path / "x"), "--set", "warp_factor=9"]
        )
        assert code == 2

    def test_malformed_set_is_a_usage_error(self, tmp_path):
        assert main(["synth", "--out", str(tmp_path / "x"), "--set", "epochs"]) == 2

    def test_bad_type_is_a_usage_error(self, tmp_path):
        code = main(
            ["synth", "--out", str(tmp_path / "x"), "--set", "n_speakers=many"]
        )
        assert code == 2

    @pytest.mark.parametrize(
        "command, setting, value",
        [
            ("synth", "seed", "-1"),
            ("train", "learning_rate", "inf"),
            ("train", "learning_rate", "nan"),
            ("train", "epsilon", "inf"),
            ("train", "seed", "-1"),
            ("synth", "asv_channel_scale", "nan"),
            ("synth", "asv_noise", "nan"),
            ("synth", "cm_separation", "inf"),
            ("synth", "cm_speaker_scale", "inf"),
        ],
    )
    def test_non_finite_or_negative_setting_is_one_line(
        self, tmp_path, run_cli, command, setting, value
    ):
        model = ["--model", "msfm"] if command == "train" else []
        result = run_cli(command, *model, "--out", tmp_path / "x",
                         "--set", f"{setting}={value}")
        assert result.returncode == 2
        lines = result.stderr.splitlines()
        assert len(lines) == 1 and setting in lines[0], result.stderr

    def test_corpus_too_large_for_memory_is_refused_before_allocating(self, tmp_path,
                                                                        run_cli, monkeypatch):
        # capping the address space makes a regression that allocates first
        # fail with MemoryError instead of exhausting the machine's memory;
        # one BLAS thread keeps OpenBLAS's per-thread buffers under the cap
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        cap = 4 << 30
        result = run_cli(
            "synth", "--out", tmp_path / "x", "--set", "n_speakers=100000000",
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
            timeout=120,
        )
        assert result.returncode == 2
        lines = result.stderr.splitlines()
        assert len(lines) == 1 and "n_speakers" in lines[0], result.stderr

    @pytest.mark.parametrize("command, setting", [
        ("train", "samples_per_epoch=1000000000000"),  # 1e12 pairs: 21.8 TiB
        ("evaluate", "bins=1000000000"),  # histogram edges: 7.45 GiB
    ])
    def test_allocation_beyond_memory_is_one_line(self, corpus, tmp_path, run_cli, monkeypatch,
                                                  command, setting):
        # under the address-space cap the allocation fails with MemoryError
        # whatever the machine's overcommit policy, and never touches memory
        monkeypatch.setenv("SASV_LOG", "error")
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        cap = 4 << 30
        if command == "train":
            argv = ["train", "--model", "msfm", "--asv-store", corpus / "asv.emb",
                    "--cm-store", corpus / "cm.emb", "--protocol", corpus / "protocol.txt",
                    "--out", tmp_path / "x"]
        else:
            argv = evaluate_args(corpus, tmp_path / "x")
        result = run_cli(
            *argv, "--set", setting,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
            timeout=120,
        )
        assert result.returncode == 1
        lines = result.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("ERROR sasvkit: out of memory: "), \
            result.stderr

    def test_memory_error_without_a_message_is_one_line(self, monkeypatch, capfd):
        def exhausted(args):
            raise MemoryError

        monkeypatch.setattr(cli, "cmd_report", exhausted)
        assert main(["report"]) == 1
        assert error_line(capfd) == "ERROR sasvkit: out of memory: an allocation failed"

    @pytest.mark.parametrize("setting", ["cm_separation=1e300", "cm_speaker_scale=1e300"])
    def test_cm_values_beyond_single_precision_are_one_line(self, tmp_path, run_cli, setting):
        result = run_cli("synth", "--out", tmp_path / "x", "--set", setting)
        assert result.returncode == 1
        assert result.stderr.splitlines() == [
            "ERROR sasvkit: vector for 'S0000_B000' contains non-finite values"]
        assert not list((tmp_path / "x").iterdir())

    def test_asv_noise_whose_norms_overflow_is_one_line(self, tmp_path, run_cli):
        result = run_cli("synth", "--out", tmp_path / "x",
                         "--set", "asv_noise=1e300", "--set", "n_speakers=3")
        assert result.returncode == 1
        assert result.stderr.splitlines() == [
            "ERROR sasvkit: cannot normalize a vector whose norm overflows"]
        assert not list((tmp_path / "x").iterdir())

    def test_bad_log_level_is_a_usage_error(self, monkeypatch, tmp_path):
        monkeypatch.setenv("SASV_LOG", "chatty")
        assert main(["synth", "--out", str(tmp_path / "x")]) == 2

    def test_missing_subcommand_is_a_usage_error(self, capsys):
        assert main([]) == 2
        capsys.readouterr()


class TestParsers:
    def test_kv_parser_rejects_bad_line(self):
        with pytest.raises(UsageError, match="line 2"):
            parse_kv_text("a = 1\nnonsense\n")

    def test_kv_parser_rejects_duplicate_key(self):
        with pytest.raises(UsageError, match="duplicate"):
            parse_kv_text("a = 1\na = 2\n")

    def test_kv_parser_strips_comments_and_blanks(self):
        parsed = parse_kv_text("\n# note\n a = 1 # trailing\n\nb=x=y\n")
        assert parsed == {"a": "1", "b": "x=y"}

    TWO_TRIALS = "S0 u0 target\nS0 u1 nontarget\n"

    def test_score_parser_round_trips_full_precision(self):
        trials = parse_trial_list(self.TWO_TRIALS, {"S0": ("e0",)})
        for text in ("S0 u0 0.1\nS0 u1 -2.5e-3\n", "S0 u1 -2.5e-3\nS0 u0 0.1\n"):
            scores = parse_score_file(text, trials)
            assert scores.dtype == np.float64
            assert scores.tolist() == [0.1, -2.5e-3]

    def test_score_parser_rejects_short_line(self):
        trials = parse_trial_list(self.TWO_TRIALS, {"S0": ("e0",)})
        with pytest.raises(ValueError, match="line 1"):
            parse_score_file("S0 u0\n", trials)

    def test_score_parser_names_missing_trials(self):
        trials = parse_trial_list(self.TWO_TRIALS, {"S0": ("e0",)})
        with pytest.raises(ValueError, match="^score file covers 1 of 2 trials; missing: S0 u1$"):
            parse_score_file("S0 u0 0.1\n", trials)


SCORE_LINES = st.tuples(st.sampled_from(["S0", "S1"]), st.sampled_from(["T1", "T2"]),
                        st.sampled_from(["0.5", "-1e3", "0.25", "1_0"]))
TRIAL_LINES = st.tuples(st.sampled_from(["S0", "S1"]), st.sampled_from(["T1", "T2"]),
                        st.sampled_from(TRIAL_LABELS))


ENROLLMENT_LINES = st.tuples(st.sampled_from(["S0", "S1"]),
                             st.sampled_from(["U1", "U1,U2", ",U2"]))
PROTOCOL_LINES = st.tuples(st.sampled_from(["S0", "S1"]), st.sampled_from(["U1", "U2"]),
                           st.just("-"), st.sampled_from(["-", "A01"]),
                           st.sampled_from(["bonafide", "spoof"]))
CONFIG_LINES = st.tuples(st.sampled_from(["seed", "n_speakers"]), st.just("="),
                         st.sampled_from(["3", "7 # note"]))
CONFIG_FIELDS = st.sampled_from(["seed", "n_speakers", "=", "3", "#", "x=1", "", "\u00fc"])


def one_error_line(result, message: str, code: int = 1) -> None:
    assert result.returncode == code, result.stderr
    assert result.stderr.splitlines() == [f"ERROR sasvkit: {message}"]


@pytest.fixture(scope="module")
def garbled_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("garbled")
    (out / "enrollment.txt").write_text(
        "".join(f"{s} {','.join(ids)}\n" for s, ids in FUZZ_ENROLLMENT.items()))
    (out / "trials.txt").write_text("S0 T1 target\nS1 T2 spoof\n")
    return out


class TestGarbledText:
    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(text=garbled_text(SCORE_LINES))
    def test_garbled_score_file_is_one_line(self, corpus, garbled_dir, run_cli, text):
        path = garbled_dir / "scores.txt"
        path.write_text(text, encoding="utf-8", newline="")
        trials = parse_trial_list((garbled_dir / "trials.txt").read_text(), FUZZ_ENROLLMENT)
        try:
            parse_score_file(text, trials, source=str(path))
            return
        except ValueError as exc:
            message = str(exc)
        if not message.startswith("score file covers "):
            assert re.search(r"line \d+", message)
        result = run_cli("report", "--scores", path, "--trials", garbled_dir / "trials.txt",
                         "--enrollment", garbled_dir / "enrollment.txt",
                         "--out", garbled_dir / "report")
        one_error_line(result, message)

    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(text=garbled_text(TRIAL_LINES))
    def test_garbled_trial_list_is_one_line(self, corpus, garbled_dir, run_cli, text):
        path = garbled_dir / "garbled_trials.txt"
        path.write_text(text, encoding="utf-8", newline="")
        try:
            parse_trial_list(text, FUZZ_ENROLLMENT)
            return
        except ValueError as exc:
            message = str(exc)
        result = run_cli("evaluate", "--model", "baseline1", "--asv-store", corpus / "asv.emb",
                         "--cm-store", corpus / "cm.emb", "--trials", path,
                         "--enrollment", garbled_dir / "enrollment.txt",
                         "--out", garbled_dir / "eval")
        one_error_line(result, message)

    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(text=garbled_text(ENROLLMENT_LINES))
    def test_garbled_enrollment_map_is_one_line(self, corpus, garbled_dir, run_cli, text):
        path = garbled_dir / "garbled_enrollment.txt"
        path.write_text(text, encoding="utf-8", newline="")
        try:
            parse_enrollment_map(text)
            return
        except ValueError as exc:
            message = str(exc)
        assert re.match(r"line \d+: ", message)
        result = run_cli("evaluate", "--model", "baseline1", "--asv-store", corpus / "asv.emb",
                         "--cm-store", corpus / "cm.emb", "--trials", garbled_dir / "trials.txt",
                         "--enrollment", path, "--out", garbled_dir / "eval")
        one_error_line(result, message)

    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(text=garbled_text(PROTOCOL_LINES))
    def test_garbled_cm_protocol_is_one_line(self, corpus, garbled_dir, run_cli, text):
        path = garbled_dir / "garbled_protocol.txt"
        path.write_text(text, encoding="utf-8", newline="")
        try:
            parse_cm_protocol(text)
            return
        except ValueError as exc:
            message = str(exc)
        assert re.match(r"line \d+: ", message)
        result = run_cli("train", "--model", "msfm", "--asv-store", corpus / "asv.emb",
                         "--cm-store", corpus / "cm.emb", "--protocol", path,
                         "--out", garbled_dir / "train")
        one_error_line(result, message)

    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(text=garbled_text(CONFIG_LINES, CONFIG_FIELDS))
    def test_garbled_config_file_is_one_line(self, garbled_dir, run_cli, text):
        path = garbled_dir / "garbled_config.txt"
        path.write_text(text, encoding="utf-8", newline="")
        try:
            parse_kv_text(text, source=str(path))
            return
        except ValueError as exc:
            message = str(exc)
        assert message.startswith(f"{path} line ")
        result = run_cli("synth", "--config", path, "--out", garbled_dir / "synth")
        one_error_line(result, message, code=2)


# "0" and "-0" compare equal, so a key repeated with both is no conflict
FUZZ_SCORES = st.sampled_from(
    ["0.5", "-1e3", "0.25", "1_0", "0", "-0", "nan", "inf", "-inf", "1e400", "1e-320", "0x1"])
FUZZ_TRIAL = st.tuples(st.sampled_from(["S0", "S1"]), st.sampled_from(["T1", "T2", "T3"]),
                       st.sampled_from(TRIAL_LABELS))


@st.composite
def score_files(draw) -> tuple:
    """A trial list over FUZZ_ENROLLMENT and a score file for it.

    The file lists the trials in order, shuffled, with some keys repeated
    (their scores the same or conflicting), or with its last line dropped.
    The trial list itself may repeat a key.
    """
    unique = draw(st.booleans())
    rows = draw(st.lists(FUZZ_TRIAL, min_size=1, max_size=8,
                         unique_by=(lambda row: row[:2]) if unique else None))
    lines = [f"{speaker} {test} {draw(FUZZ_SCORES)}" for speaker, test, _ in rows]
    kind = draw(st.sampled_from(["order", "shuffled", "repeated", "clipped"]))
    if kind == "shuffled":
        lines = draw(st.permutations(lines))
    elif kind == "repeated":
        extra = draw(st.lists(st.sampled_from(lines), min_size=1, max_size=3))
        lines = draw(st.permutations(lines + [
            line if draw(st.booleans()) else f"{line.rsplit(' ', 1)[0]} {draw(FUZZ_SCORES)}"
            for line in extra]))
    elif kind == "clipped":
        lines = lines[:-1]
    trial_text = "".join(f"{speaker} {test} {label}\n" for speaker, test, label in rows)
    return trial_text, "".join(f"{line}\n" for line in lines)


class TestScoreFileJoin:
    """The position join and the keyed path read every score file alike."""

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(case=score_files())
    def test_both_paths_and_the_cli_agree(self, garbled_dir, capfd, case):
        trial_text, text = case
        trials_path, path = garbled_dir / "join_trials.txt", garbled_dir / "join_scores.txt"
        trials_path.write_text(trial_text)
        path.write_text(text)
        trials = parse_trial_list(trial_text, FUZZ_ENROLLMENT)

        def outcome(read):
            try:
                return read(text, trials, str(path))
            except ValueError as exc:
                return str(exc)

        out = garbled_dir / "join_report"
        capfd.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            keyed, joined = outcome(cli._keyed_scores), outcome(parse_score_file)
            if isinstance(keyed, str):
                assert joined == keyed
                expected = keyed
            else:
                assert joined.tobytes() == keyed.tobytes()
                expected = outcome(lambda *_: evaluate_system(ScoredTrials(trials, keyed)))
            code = main(["report", "--scores", str(path), "--trials", str(trials_path),
                         "--enrollment", str(garbled_dir / "enrollment.txt"),
                         "--out", str(out)])
        err = capfd.readouterr().err.splitlines()
        if isinstance(expected, str):
            assert (code, err) == (1, [f"ERROR sasvkit: {expected}"])
        else:
            assert code == 0, err
            assert all(line.startswith("INFO sasvkit: report: ") for line in err), err
            assert (out / "report.txt").read_text() == format_report_text(expected)
            assert (out / "histogram.csv").read_text() == format_histogram_csv(expected)


class TestTextEncoding:
    @pytest.mark.parametrize("name, code", [
        ("trials", 1), ("enrollment", 1), ("scores", 1), ("protocol", 1), ("config", 2),
    ])
    def test_non_utf8_file_is_named_with_its_offset(self, corpus, tmp_path, run_cli,
                                                    name, code):
        bad = tmp_path / f"{name}.txt"
        bad.write_bytes(b"S00\xff U1 target\n")
        stores = ["--asv-store", corpus / "asv.emb", "--cm-store", corpus / "cm.emb"]
        trials = {"trials": corpus / "trials_eval.txt", "enrollment": corpus / "enrollment.txt"}
        trials[name] = bad
        trial_files = ["--trials", trials["trials"], "--enrollment", trials["enrollment"]]
        argv = {
            "trials": ["evaluate", "--model", "baseline1", *stores, *trial_files],
            "enrollment": ["evaluate", "--model", "baseline1", *stores, *trial_files],
            "scores": ["report", "--scores", bad, *trial_files],
            "protocol": ["train", "--model", "msfm", *stores, "--protocol", bad],
            "config": ["synth", "--config", bad],
        }[name]
        result = run_cli(*argv, "--out", tmp_path / "out")
        assert result.returncode == code
        lines = result.stderr.splitlines()
        assert len(lines) == 1, result.stderr
        assert str(bad) in lines[0] and "byte 0xff at offset 3" in lines[0]


class TestOverflowingCheckpoint:
    def test_train_refuses_to_write_non_finite_weights(self, corpus, tmp_path, run_cli,
                                                       monkeypatch):
        # one step at this rate makes the weights non-finite; no checkpoint is written
        monkeypatch.setenv("SASV_LOG", "error")
        trained = run_cli("train", "--model", "msfm", "--asv-store", corpus / "asv.emb",
                          "--cm-store", corpus / "cm.emb", "--protocol", corpus / "protocol.txt",
                          "--out", tmp_path / "train", "--set", "learning_rate=1e308",
                          "--set", "epochs=1", "--set", "samples_per_epoch=64")
        assert trained.returncode == 1
        assert trained.stderr.splitlines() == [
            "ERROR sasvkit: non-finite parameters of block enroll_encoder after the last step"
        ], trained.stderr
        assert not (tmp_path / "train" / "model.ckpt").exists()

    def test_evaluate_names_the_overflowing_block(self, corpus, tmp_path, run_cli,
                                                  monkeypatch):
        # finite weights whose activations overflow
        monkeypatch.setenv("SASV_LOG", "error")
        model = make_msfm(asv_dim=16, cm_dim=12)
        for tensor in model.tensors():
            tensor *= 1e300
        save_model(model, tmp_path / "model.ckpt")
        result = run_cli(*evaluate_args(corpus, tmp_path / "eval", model="msfm",
                                        checkpoint=tmp_path / "model.ckpt"))
        assert result.returncode == 1
        lines = result.stderr.splitlines()
        assert len(lines) == 1, result.stderr
        assert re.fullmatch(r"ERROR sasvkit: activations of block \w+ overflowed", lines[0])


class TestOverflowingTraining:
    def test_train_names_the_epoch_step_and_block(self, corpus, tmp_path, run_cli,
                                                  monkeypatch):
        # the first step leaves weights near 1e308; the second step's forward
        # pass overflows in the trunk
        monkeypatch.setenv("SASV_LOG", "error")
        result = run_cli("train", "--model", "iep", "--asv-store", corpus / "asv.emb",
                         "--cm-store", corpus / "cm.emb", "--protocol", corpus / "protocol.txt",
                         "--out", tmp_path / "train", "--set", "learning_rate=1e308",
                         "--set", "epochs=1", "--set", "samples_per_epoch=64")
        assert result.returncode == 1
        lines = result.stderr.splitlines()
        assert lines == [
            "ERROR sasvkit: non-finite values at epoch 0, step 1: "
            "activations of block trunk overflowed"
        ], result.stderr


PAIRS_UNSATISFIABLE = (
    "scenario bonafide-same is unsatisfiable: no speaker has two bonafide utterances"
)


class TestTrainingProtocol:
    def train(self, run_cli, corpus, tmp_path, model, protocol):
        return run_cli("train", "--model", model, "--asv-store", corpus / "asv.emb",
                       "--cm-store", corpus / "cm.emb", "--protocol", protocol,
                       "--out", tmp_path / "train", "--set", "epochs=1",
                       "--set", "samples_per_epoch=64")

    def test_row_missing_from_the_stores_fails_before_training(self, corpus, tmp_path,
                                                               run_cli, monkeypatch):
        # 64 pairs a run would rarely draw the extra row; it is refused anyway
        monkeypatch.setenv("SASV_LOG", "error")
        protocol = tmp_path / "protocol.txt"
        protocol.write_text((corpus / "protocol.txt").read_text()
                            + "S0000 ghost_X - - bonafide\n")
        result = self.train(run_cli, corpus, tmp_path, "msfm", protocol)
        assert result.returncode == 1
        assert result.stderr.splitlines() == [
            "ERROR sasvkit: 1 utterance(s) missing from asv store: ghost_X"
        ], result.stderr
        assert not (tmp_path / "train" / "model.ckpt").exists()

    @pytest.mark.parametrize("model", ["msfm", "baseline2", "iep"])
    def test_empty_protocol_is_one_line(self, corpus, tmp_path, run_cli, monkeypatch, model):
        message = {
            "msfm": PAIRS_UNSATISFIABLE,
            "baseline2": PAIRS_UNSATISFIABLE,
            "iep": "no speaker with two bonafide utterances and an available negative",
        }[model]
        monkeypatch.setenv("SASV_LOG", "error")
        protocol = tmp_path / "protocol.txt"
        protocol.write_text("")
        result = self.train(run_cli, corpus, tmp_path, model, protocol)
        assert result.returncode == 1
        assert result.stderr.splitlines() == [f"ERROR sasvkit: {message}"], result.stderr
