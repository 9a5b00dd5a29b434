"""Command-line front end: synthesize data, train back-ends, score, report.

Subcommands
-----------
synth     write a synthetic embedding corpus (stores, protocol, trials)
train     fit a model on a protocol + embedding stores, save a checkpoint
evaluate  score a trial list with a checkpoint (or baseline1) and report EERs
report    recompute the EER report from an existing score file

Every run is deterministic given its settings, and every run writes the
settings it actually used to ``resolved_config.txt`` next to its outputs.
Settings come from an optional ``--config`` key=value file, overridden by
repeatable ``--set key=value`` flags, overridden by the dedicated flags.

Exit codes: 0 success, 1 runtime failure (bad data, training blow-up, I/O),
2 usage or configuration error. The ``SASV_LOG`` environment variable
(``error``, ``info``, or ``debug``) controls stderr verbosity.
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import os
import sys
from pathlib import Path

from .data import (
    load_embedding_store,
    parse_cm_protocol,
    parse_enrollment_map,
    parse_trial_list,
    write_embedding_store,
    write_enrollment_map,
    write_protocol,
    write_trial_list,
)
from .metrics import ScoredTrial, evaluate_system, write_report
from .models import SYSTEMS, load_model, save_model, score_trials, system_name
from .neuralcore import TrainConfig
from .sampling import SynthConfig, generate_synthetic

_LOG = logging.getLogger("sasvkit")

_LOG_LEVELS = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}

MODEL_CHOICES = tuple(SYSTEMS)

RESOLVED_CONFIG_NAME = "resolved_config.txt"

_SYNTH_KEYS = frozenset(f.name for f in dataclasses.fields(SynthConfig)) | {"out"}
_TRAIN_KEYS = frozenset(f.name for f in dataclasses.fields(TrainConfig)) | {
    "out",
    "model",
    "asv_store",
    "cm_store",
    "protocol",
}
_EVALUATE_KEYS = frozenset(
    {
        "out",
        "model",
        "checkpoint",
        "asv_store",
        "cm_store",
        "trials",
        "enrollment",
        "bins",
        "seed",
    }
)
_REPORT_KEYS = frozenset(
    {"out", "scores", "trials", "enrollment", "bins", "seed"}
)


class UsageError(Exception):
    """A problem with flags or configuration, reported with exit code 2."""


def _configure_logging() -> None:
    name = os.environ.get("SASV_LOG", "info").strip().lower()
    if name not in _LOG_LEVELS:
        raise UsageError(
            f"SASV_LOG must be one of error, info, debug; got {name!r}"
        )
    logging.basicConfig(
        stream=sys.stderr, level=logging.DEBUG, format="%(levelname)s %(name)s: %(message)s"
    )
    _LOG.setLevel(_LOG_LEVELS[name])


def parse_kv_text(text: str, source: str = "config") -> dict:
    """Parse ``key = value`` lines (``#`` comments allowed) into a dict."""
    settings: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise UsageError(f"{source} line {lineno}: expected 'key = value'")
        key, value = stripped.split("=", 1)
        key = key.strip()
        value = value.strip()
        if not key:
            raise UsageError(f"{source} line {lineno}: empty key")
        if key in settings:
            raise UsageError(f"{source} line {lineno}: duplicate key {key!r}")
        settings[key] = value
    return settings


def _merge_settings(args: argparse.Namespace, recognized: frozenset, flag_keys: tuple) -> dict:
    """Layer config file < --set overrides < dedicated flags."""
    settings: dict[str, object] = {}
    if args.config is not None:
        path = Path(args.config)
        if not path.is_file():
            raise UsageError(f"config file not found: {path}")
        settings.update(parse_kv_text(path.read_text(encoding="utf-8"), source=str(path)))
    for item in args.overrides:
        if "=" not in item:
            raise UsageError(f"--set expects key=value, got {item!r}")
        key, value = item.split("=", 1)
        settings[key.strip()] = value.strip()
    for key in flag_keys:
        value = getattr(args, key)
        if value is not None:
            settings[key] = str(value)
    unknown = sorted(set(settings) - set(recognized))
    if unknown:
        raise UsageError(f"unknown setting(s): {', '.join(unknown)}")
    return settings


_FIELD_TYPES = {"int": int, "float": float, "bool": bool, "str": str}


def _coerce(name: str, raw, typ):
    if isinstance(typ, str):
        typ = _FIELD_TYPES.get(typ, str)
    if typ is bool:
        lowered = str(raw).strip().lower()
        if lowered in ("true", "1", "yes"):
            return True
        if lowered in ("false", "0", "no"):
            return False
        raise UsageError(f"setting {name!r} expects true/false, got {raw!r}")
    try:
        return typ(raw)
    except (TypeError, ValueError):
        raise UsageError(
            f"setting {name!r} expects {typ.__name__}, got {raw!r}"
        ) from None


def _build_dataclass(cls, settings: dict):
    kwargs = {}
    for field in dataclasses.fields(cls):
        if field.name in settings:
            kwargs[field.name] = _coerce(field.name, settings[field.name], field.type)
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise UsageError(f"invalid configuration: {exc}") from exc


def _require(settings: dict, key: str, command: str) -> str:
    value = settings.get(key)
    if value is None:
        raise UsageError(f"{command} needs {key!r} (flag --{key.replace('_', '-')})")
    return str(value)


def _existing_path(settings: dict, key: str, command: str) -> Path:
    path = Path(_require(settings, key, command))
    if not path.is_file():
        raise UsageError(f"{key.replace('_', ' ')} file not found: {path}")
    return path


def _out_dir(settings: dict, command: str) -> Path:
    out = Path(_require(settings, "out", command))
    out.mkdir(parents=True, exist_ok=True)
    return out


def _format_setting(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_resolved_config(out: Path, command: str, settings: dict) -> None:
    """Record the settings a run actually used, one ``key = value`` per line.

    The output directory itself is omitted: the file already lives inside it,
    and leaving it out keeps runs into different directories byte-comparable.
    """
    lines = [f"command = {command}"]
    for key in sorted(settings):
        if key == "out":
            continue
        lines.append(f"{key} = {_format_setting(settings[key])}")
    (out / RESOLVED_CONFIG_NAME).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _load_stores(settings: dict, command: str):
    asv_path = _existing_path(settings, "asv_store", command)
    cm_path = _existing_path(settings, "cm_store", command)
    return load_embedding_store(asv_path, "asv"), load_embedding_store(cm_path, "cm")


def _load_trials(settings: dict, command: str) -> list:
    enrollment_path = _existing_path(settings, "enrollment", command)
    trials_path = _existing_path(settings, "trials", command)
    enrollment = parse_enrollment_map(enrollment_path.read_text(encoding="utf-8"))
    return parse_trial_list(trials_path.read_text(encoding="utf-8"), enrollment)


def _log_eers(command: str, report) -> None:
    for metric, eer in report.eer_percent.items():
        if eer is None:
            _LOG.info("%s: %s EER absent", command, metric.upper())
        else:
            _LOG.info("%s: %s EER %.2f%%", command, metric.upper(), eer)


def cmd_synth(args: argparse.Namespace) -> None:
    settings = _merge_settings(args, _SYNTH_KEYS, ("seed", "out"))
    out = _out_dir(settings, "synth")
    config = _build_dataclass(SynthConfig, settings)
    dataset = generate_synthetic(config)
    write_protocol(dataset.train_records, out / "protocol.txt")
    write_enrollment_map(dataset.enrollment, out / "enrollment.txt")
    write_trial_list(dataset.dev_trials, out / "trials_dev.txt")
    write_trial_list(dataset.eval_trials, out / "trials_eval.txt")
    write_embedding_store(dataset.asv_store, out / "asv.emb")
    write_embedding_store(dataset.cm_store, out / "cm.emb")
    write_resolved_config(out, "synth", dataclasses.asdict(config))
    _LOG.info(
        "synth: %d train utterances, %d dev trials, %d eval trials -> %s",
        len(dataset.train_records),
        len(dataset.dev_trials),
        len(dataset.eval_trials),
        out,
    )


def _write_train_log(out: Path, kind: str, config: TrainConfig, history: list) -> None:
    lines = [f"model = {kind}", f"seed = {config.seed}"]
    for row in history:
        parts = [f"epoch {row['epoch']}"]
        parts.extend(
            f"{key}={float(value)!r}" for key, value in row.items() if key != "epoch"
        )
        lines.append(" ".join(parts))
    (out / "train_log.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")


def cmd_train(args: argparse.Namespace) -> None:
    settings = _merge_settings(
        args, _TRAIN_KEYS, ("seed", "out", "model", "asv_store", "cm_store", "protocol")
    )
    kind = _require(settings, "model", "train")
    if kind not in SYSTEMS:
        raise UsageError(f"unknown model kind {kind!r}; choose from {MODEL_CHOICES}")
    system = SYSTEMS[kind]
    if system.train is None:
        raise UsageError(f"{kind} is training-free; it has nothing to train")
    out = _out_dir(settings, "train")
    config = _build_dataclass(TrainConfig, settings)
    protocol_path = _existing_path(settings, "protocol", "train")
    asv_store, cm_store = _load_stores(settings, "train")
    records = parse_cm_protocol(protocol_path.read_text(encoding="utf-8"))
    _LOG.info("train: fitting %s on %d protocol records", kind, len(records))
    model, history = system.train(records, asv_store, cm_store, config, **system.options)
    for row in history:
        _LOG.debug("train: %s", row)
    save_model(model, out / "model.ckpt")
    _write_train_log(out, kind, config, history)
    resolved = dict(dataclasses.asdict(config))
    resolved.update(
        model=kind,
        asv_store=str(settings["asv_store"]),
        cm_store=str(settings["cm_store"]),
        protocol=str(settings["protocol"]),
    )
    write_resolved_config(out, "train", resolved)
    _LOG.info("train: wrote %s", out / "model.ckpt")


def _bins(settings: dict) -> int:
    bins = _coerce("bins", settings.get("bins", 30), int)
    if bins < 1:
        raise UsageError("bins must be at least 1")
    return bins


def write_score_file(scored, path: Path) -> None:
    """One line per trial: enroll speaker, test utterance, full-precision score."""
    with open(path, "w", encoding="utf-8") as fh:
        for item in scored:
            fh.write(
                f"{item.trial.enroll_speaker_id} "
                f"{item.trial.test_utterance_id} {float(item.score)!r}\n"
            )


def cmd_evaluate(args: argparse.Namespace) -> None:
    settings = _merge_settings(
        args,
        _EVALUATE_KEYS,
        ("seed", "out", "model", "checkpoint", "asv_store", "cm_store", "trials", "enrollment"),
    )
    kind = _require(settings, "model", "evaluate")
    if kind not in MODEL_CHOICES:
        raise UsageError(f"unknown model kind {kind!r}; choose from {MODEL_CHOICES}")
    bins = _bins(settings)
    out = _out_dir(settings, "evaluate")
    if SYSTEMS[kind].model_class is None:
        if settings.get("checkpoint") is not None:
            raise UsageError(f"{kind} takes no checkpoint")
        system = kind
    else:
        checkpoint = _existing_path(settings, "checkpoint", "evaluate")
        system = load_model(checkpoint)
        actual = system_name(system)
        if actual != kind:
            raise UsageError(
                f"checkpoint {checkpoint} holds a {actual} model, not {kind}"
            )
    asv_store, cm_store = _load_stores(settings, "evaluate")
    trials = _load_trials(settings, "evaluate")
    _LOG.info("evaluate: scoring %d trials with %s", len(trials), kind)
    scored = score_trials(system, trials, asv_store, cm_store)
    write_score_file(scored, out / "scores.txt")
    report = evaluate_system(scored, bins=bins)
    write_report(report, out)
    resolved = {
        "model": kind,
        "asv_store": str(settings["asv_store"]),
        "cm_store": str(settings["cm_store"]),
        "trials": str(settings["trials"]),
        "enrollment": str(settings["enrollment"]),
        "bins": bins,
    }
    if settings.get("checkpoint") is not None:
        resolved["checkpoint"] = str(settings["checkpoint"])
    if settings.get("seed") is not None:
        resolved["seed"] = _coerce("seed", settings["seed"], int)
    write_resolved_config(out, "evaluate", resolved)
    _log_eers("evaluate", report)


def parse_score_file(text: str, source: str = "scores") -> dict:
    """Map ``(enroll_speaker, test_utterance) -> score`` from a score file.

    Repeated identical lines are tolerated; two different scores for the same
    trial key are contradictory and rejected.
    """
    scores: dict[tuple, float] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        fields = line.split()
        if len(fields) != 3:
            raise ValueError(
                f"{source} line {lineno}: expected 'speaker utterance score', "
                f"got {len(fields)} fields"
            )
        speaker, utterance, raw = fields
        try:
            value = float(raw)
        except ValueError:
            raise ValueError(
                f"{source} line {lineno}: malformed score {raw!r}"
            ) from None
        key = (speaker, utterance)
        if key in scores and scores[key] != value:
            raise ValueError(
                f"{source} line {lineno}: conflicting score for trial "
                f"{speaker} {utterance}"
            )
        scores[key] = value
    return scores


def cmd_report(args: argparse.Namespace) -> None:
    settings = _merge_settings(
        args, _REPORT_KEYS, ("seed", "out", "scores", "trials", "enrollment")
    )
    bins = _bins(settings)
    out = _out_dir(settings, "report")
    scores_path = _existing_path(settings, "scores", "report")
    trials = _load_trials(settings, "report")
    scores = parse_score_file(
        scores_path.read_text(encoding="utf-8"), source=str(scores_path)
    )
    missing = [
        trial
        for trial in trials
        if (trial.enroll_speaker_id, trial.test_utterance_id) not in scores
    ]
    if missing:
        shown = ", ".join(
            f"{t.enroll_speaker_id} {t.test_utterance_id}" for t in missing[:20]
        )
        if len(missing) > 20:
            shown += ", ..."
        raise ValueError(
            f"score file covers {len(trials) - len(missing)} of {len(trials)} "
            f"trials; missing: {shown}"
        )
    scored = [
        ScoredTrial(
            trial=trial,
            score=scores[(trial.enroll_speaker_id, trial.test_utterance_id)],
        )
        for trial in trials
    ]
    report = evaluate_system(scored, bins=bins)
    write_report(report, out)
    resolved = {
        "scores": str(settings["scores"]),
        "trials": str(settings["trials"]),
        "enrollment": str(settings["enrollment"]),
        "bins": bins,
    }
    if settings.get("seed") is not None:
        resolved["seed"] = _coerce("seed", settings["seed"], int)
    write_resolved_config(out, "report", resolved)
    _log_eers("report", report)


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="key = value settings file")
    parser.add_argument(
        "--set",
        action="append",
        default=[],
        dest="overrides",
        metavar="KEY=VALUE",
        help="override one setting (repeatable)",
    )
    parser.add_argument("--seed", type=int, help="random seed")
    parser.add_argument("--out", help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sasvkit",
        description="Spoofing-aware speaker verification back-ends over "
        "precomputed embeddings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    synth = sub.add_parser("synth", help="generate a synthetic embedding corpus")
    _add_common_flags(synth)
    synth.set_defaults(handler=cmd_synth)

    train = sub.add_parser("train", help="train a model and save a checkpoint")
    _add_common_flags(train)
    train.add_argument("--model", choices=MODEL_CHOICES, help="model kind")
    train.add_argument("--asv-store", dest="asv_store", help="ASV embedding store")
    train.add_argument("--cm-store", dest="cm_store", help="CM embedding store")
    train.add_argument("--protocol", help="training protocol file")
    train.set_defaults(handler=cmd_train)

    evaluate = sub.add_parser("evaluate", help="score a trial list and report EERs")
    _add_common_flags(evaluate)
    evaluate.add_argument("--model", choices=MODEL_CHOICES, help="model kind")
    evaluate.add_argument("--checkpoint", help="model checkpoint (not for baseline1)")
    evaluate.add_argument("--asv-store", dest="asv_store", help="ASV embedding store")
    evaluate.add_argument("--cm-store", dest="cm_store", help="CM embedding store")
    evaluate.add_argument("--trials", help="trial list file")
    evaluate.add_argument("--enrollment", help="enrollment map file")
    evaluate.set_defaults(handler=cmd_evaluate)

    report = sub.add_parser("report", help="recompute EERs from a score file")
    _add_common_flags(report)
    report.add_argument("--scores", help="score file from evaluate")
    report.add_argument("--trials", help="trial list file")
    report.add_argument("--enrollment", help="enrollment map file")
    report.set_defaults(handler=cmd_report)

    return parser


def main(argv=None) -> int:
    try:
        _configure_logging()
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        args.handler(args)
    except UsageError as exc:
        _LOG.error("%s", exc)
        return 2
    except (ValueError, RuntimeError, OSError) as exc:
        _LOG.error("%s", exc)
        return 1
    except KeyError as exc:
        _LOG.error("%s", exc.args[0] if exc.args else exc)
        return 1
    return 0


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
