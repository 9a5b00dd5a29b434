import logging

import pytest
from sasvkit.cli import main, parse_kv_text, parse_score_file, UsageError
from sasvkit.data import (
    load_embedding_store,
    parse_enrollment_map,
    parse_trial_list,
)
from sasvkit.models import make_iep, save_model

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

    def test_missing_utterance_lists_ids(self, corpus, tmp_path, caplog):
        trials = tmp_path / "trials.txt"
        trials.write_text("S0000 ghost-a target\nS0000 ghost-b spoof\n")
        args = evaluate_args(corpus, tmp_path / "x", trials=trials)
        with caplog.at_level(logging.ERROR, logger="sasvkit"):
            assert main(args) == 1
        message = caplog.records[-1].getMessage()
        assert "ghost-a" in message and "ghost-b" in message


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

    def test_coverage_gap_is_an_error(self, corpus, evaluated, tmp_path, caplog):
        clipped = tmp_path / "clipped.txt"
        lines = (evaluated / "scores.txt").read_text().splitlines()
        clipped.write_text("\n".join(lines[1:]) + "\n")
        with caplog.at_level(logging.ERROR, logger="sasvkit"):
            code = main(self.report_args(corpus, clipped, tmp_path / "x"))
        assert code == 1
        assert "missing" in caplog.records[-1].getMessage()

    def test_malformed_line_reports_its_number(self, corpus, evaluated, tmp_path, caplog):
        broken = tmp_path / "broken.txt"
        lines = (evaluated / "scores.txt").read_text().splitlines()
        lines[2] = "S0000 S0000_B007 not-a-number"
        broken.write_text("\n".join(lines) + "\n")
        with caplog.at_level(logging.ERROR, logger="sasvkit"):
            code = main(self.report_args(corpus, broken, tmp_path / "x"))
        assert code == 1
        assert "line 3" in caplog.records[-1].getMessage()

    def test_conflicting_duplicate_is_an_error(self, corpus, evaluated, tmp_path, caplog):
        doubled = tmp_path / "doubled.txt"
        lines = (evaluated / "scores.txt").read_text().splitlines()
        speaker, utterance, _ = lines[0].split()
        lines.append(f"{speaker} {utterance} 123.0")
        doubled.write_text("\n".join(lines) + "\n")
        with caplog.at_level(logging.ERROR, logger="sasvkit"):
            code = main(self.report_args(corpus, doubled, tmp_path / "x"))
        assert code == 1
        assert "conflicting" in caplog.records[-1].getMessage()

    def test_exact_duplicate_is_tolerated(self, corpus, evaluated, tmp_path):
        doubled = tmp_path / "doubled.txt"
        lines = (evaluated / "scores.txt").read_text().splitlines()
        doubled.write_text("\n".join(lines + [lines[0]]) + "\n")
        assert main(self.report_args(corpus, doubled, tmp_path / "x")) == 0


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

    def test_score_parser_round_trips_full_precision(self):
        text = "S0 u0 0.1\nS0 u1 -2.5e-3\n"
        assert parse_score_file(text) == {
            ("S0", "u0"): 0.1,
            ("S0", "u1"): -2.5e-3,
        }

    def test_score_parser_rejects_short_line(self):
        with pytest.raises(ValueError, match="line 1"):
            parse_score_file("S0 u0\n")
