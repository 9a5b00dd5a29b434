"""Outside-in span tracing of sasvkit's layer boundaries.

The tracer replaces each boundary function with a wrapper at the place its
caller looks it up (a module global such as ``sasvkit.models.mlp_forward``,
which ``Mlp.forward`` resolves at call time, or a class attribute such as
``EmbeddingStore.matrix``). Each call records one span: name, start, end,
parent span and a few work counters. Spans stay in memory and are written
out when the run ends. A span's self time is its duration minus the time
covered by its direct children, each child counted from entering its wrapper
to leaving it, so that the wrappers' own cost is not charged to the parent.

A boundary that no longer exists by name is reported as missing instead of
crashing the run, and every metric fed by it reads -1 rather than a silent
zero. Nothing is installed unless a traced run asks for it, so untraced runs
execute the package's own functions.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import statistics
import time
from typing import Callable, NamedTuple

# Bytes an Adam step must move per float64 parameter: read p, g, m, v, write
# p, m, v (7 x 8 B), plus the finiteness sweep over g (8 B). SGD reads p, g,
# writes p, plus the sweep.
_STEP_BYTES_PER_PARAM = {"adam": 64, "sgd": 32}


def _rows(x) -> int:
    shape = getattr(x, "shape", None)
    if shape is None:
        return 1
    return 1 if len(shape) == 1 else int(shape[0])


def _file_bytes(path) -> int:
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


def _fc_shapes(spec) -> list:
    return [(layer.in_dim, layer.out_dim) for layer in spec.fc_layers]


# --- work counters, evaluated after the span has closed ---------------------


def _load_store_work(tracer, args, kwargs, result):
    return {"bytes": _file_bytes(args[0] if args else kwargs.get("path"))}


def _gather_work(tracer, args, kwargs, result):
    ids = args[1] if len(args) > 1 else kwargs.get("utterance_ids", ())
    return {"rows": len(ids)}


def _count_work(tracer, args, kwargs, result):
    return {"items": len(result)}


def _forward_work(tracer, args, kwargs, result):
    spec, x = args[0], args[2]
    rows = _rows(x)
    if id(spec) in tracer.encoder_spec_ids:
        tracer.encoder_rows += rows
    flop = sum(2 * rows * i * o for i, o in _fc_shapes(spec))
    return {"rows": rows, "flop": flop}


def _backward_work(tracer, args, kwargs, result):
    spec, grad_out = args[0], args[3]
    rows = _rows(grad_out)
    # per linear layer: weight gradient and input gradient, one GEMM each
    flop = sum(4 * rows * i * o for i, o in _fc_shapes(spec))
    return {"rows": rows, "flop": flop}


def _optimizer_work(tracer, args, kwargs, result):
    params, config = args[0], args[2]
    n = sum(int(p.size) for p in params)
    per_param = _STEP_BYTES_PER_PARAM.get(getattr(config, "optimizer", "adam"), 64)
    return {"bytes": n * per_param}


def _checkpoint_work(tracer, args, kwargs, result):
    path = args[1] if len(args) > 1 else args[0]
    return {"bytes": _file_bytes(path)}


def _score_trials_before(tracer, args, kwargs):
    system, trials = args[0], args[1]
    encoders = [getattr(system, n, None) for n in ("enroll_encoder", "test_encoder")]
    tracer.encoder_spec_ids = set()
    if all(e is not None for e in encoders):
        tracer.encoder_spec_ids = {id(e.spec) for e in encoders}
        enrollments = {(t.enroll_speaker_id, t.enroll_utterance_ids) for t in trials}
        tests = {t.test_utterance_id for t in trials}
        tracer.encoder_useful += len(enrollments) + len(tests)


def _score_trials_after(tracer, args, kwargs, result):
    tracer.encoder_spec_ids = set()
    return None


class Boundary(NamedTuple):
    """One wrapped function: span name, site ``module:attr[.attr]``, hooks.

    ``before(tracer, args, kwargs)`` runs ahead of the call; ``work(tracer,
    args, kwargs, result)`` runs after the span has closed and returns the
    span's work counters.
    """

    span: str
    site: str
    work: Callable | None = None
    before: Callable | None = None


BOUNDARIES = (
    Boundary("data.load_store", "sasvkit.cli:load_embedding_store", _load_store_work),
    Boundary("data.parse_trials", "sasvkit.cli:parse_enrollment_map"),
    Boundary("data.parse_trials", "sasvkit.cli:parse_trial_list"),
    Boundary("data.gather", "sasvkit.data:EmbeddingStore.matrix", _gather_work),
    Boundary("data.write_store", "sasvkit.cli:write_embedding_store"),
    Boundary("sampling.pairs", "sasvkit.models:sample_training_pairs", _count_work),
    Boundary("sampling.triplets", "sasvkit.models:sample_triplets", _count_work),
    Boundary("sampling.synth", "sasvkit.cli:generate_synthetic"),
    Boundary("neuralcore.forward", "sasvkit.models:mlp_forward", _forward_work),
    Boundary("neuralcore.backward", "sasvkit.models:mlp_backward", _backward_work),
    Boundary("neuralcore.optimizer", "sasvkit.models:optimizer_step", _optimizer_work),
    Boundary("models.train_glue", "sasvkit.models:msfm_batch_losses"),
    Boundary("models.train_glue", "sasvkit.models:iep_batch_loss"),
    Boundary("models.train_glue", "sasvkit.models:baseline2_batch_loss"),
    Boundary("models.train_glue", "sasvkit.models:pair_batch"),
    Boundary(
        "models.score_resolve",
        "sasvkit.cli:score_trials",
        _score_trials_after,
        _score_trials_before,
    ),
    Boundary("models.score_batch", "sasvkit.models:MsfmModel.score_batch"),
    Boundary("models.score_batch", "sasvkit.models:IepModel.score_batch"),
    Boundary("models.score_batch", "sasvkit.models:Baseline2Model.score_batch"),
    Boundary("models.checkpoint", "sasvkit.cli:save_model", _checkpoint_work),
    Boundary("models.checkpoint", "sasvkit.cli:load_model", _checkpoint_work),
    Boundary("metrics.eer", "sasvkit.metrics:compute_eer"),
    Boundary("metrics.evaluate", "sasvkit.cli:evaluate_system"),
    Boundary("cli.write_scores", "sasvkit.cli:write_score_file"),
    Boundary("cli.parse_scores", "sasvkit.cli:parse_score_file"),
    Boundary("cli.main", "sasvkit.cli:main"),
)

# Spans of these names are read from the traced set-up; all others from the
# traced timed iteration.
SETUP_SPANS = frozenset({"sampling.synth", "data.write_store"})


def _resolve(site):
    """Return (owner, attribute name, original) or None if the site is gone."""
    module_name, _, path = site.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    # class attributes come from __dict__ so that restoring puts back the
    # plain function rather than a bound method
    namespace = owner.__dict__ if isinstance(owner, type) else vars(owner)
    if attr not in namespace or not callable(namespace[attr]):
        return None
    return owner, attr, namespace[attr]


class Tracer:
    """Span recorder that installs and removes the boundary wrappers."""

    def __init__(self, boundaries=BOUNDARIES):
        self.boundaries = boundaries
        # [name, start, end, parent index, phase, work, wrapper entered, wrapper left]
        self.spans = []
        self.missing = []
        self.phase = "setup"
        self.overhead = 0.0  # seconds spent in the wrappers, outside the calls
        self.encoder_spec_ids = set()
        self.encoder_rows = 0
        self.encoder_useful = 0
        self._stack = []
        self._installed = []

    def install(self) -> None:
        self.missing = []
        for boundary in self.boundaries:
            found = _resolve(boundary.site)
            if found is None:
                self.missing.append(boundary.site)
                continue
            owner, attr, original = found
            setattr(owner, attr, self._wrap(boundary, original))
            self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed = []

    def _wrap(self, boundary, fn):
        tracer = self
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            entered = clock()
            if boundary.before is not None:
                boundary.before(tracer, args, kwargs)
            index = len(spans)
            record = [boundary.span, 0.0, 0.0, stack[-1] if stack else -1, tracer.phase,
                      None, entered, 0.0]
            spans.append(record)
            stack.append(index)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if boundary.work is not None:
                record[5] = boundary.work(tracer, args, kwargs, result)
            record[7] = clock()
            tracer.overhead += record[1] - entered + record[7] - record[2]
            return result

        return wrapper

    def self_times(self) -> list:
        """Self time of every span, by index.

        A child's whole wrapper interval is taken off its parent: the hooks,
        bookkeeping and clock reads around the child are tracer overhead,
        not the parent's work.
        """
        own = [span[2] - span[1] for span in self.spans]
        for _, _, _, parent, _, _, entered, left in self.spans:
            if parent >= 0:
                own[parent] -= left - entered
        return own

    def dump(self, path) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, phase, work, entered, left) in enumerate(
                self.spans
            ):
                row = {"i": i, "name": name, "start": start, "end": end,
                       "parent": parent, "phase": phase, "entered": entered, "left": left}
                if work:
                    row["work"] = work
                fh.write(json.dumps(row) + "\n")
            fh.write(json.dumps({"missing": self.missing}) + "\n")


def _percentile_label(n: int) -> tuple:
    """Highest of p99/p95/p90 with at least ten samples beyond it."""
    for p in (99, 95, 90):
        if n * (100 - p) / 100 >= 10:
            return p, True
    return 90, False


def _percentile(values, p) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


# metrics whose name does not start with the span that feeds them
_FEEDS = {
    "models.encoder_useful_ratio": ("models.score_resolve", "neuralcore.forward"),
    "cli.self_s": ("cli.main",),
}


def layer_metrics(tracer: Tracer, traced_wall: float) -> tuple:
    """Per-layer metric values from the recorded spans, plus notes to print."""
    own = tracer.self_times()
    missing_spans = {b.span for b in tracer.boundaries if b.site in tracer.missing}
    totals, counts, work, durations = {}, {}, {}, {}
    for i, (name, start, end, _, phase, w, _, _) in enumerate(tracer.spans):
        if (phase == "setup") != (name in SETUP_SPANS):
            continue
        totals[name] = totals.get(name, 0.0) + own[i]
        counts[name] = counts.get(name, 0) + 1
        durations.setdefault(name, []).append(end - start)
        for key, value in (w or {}).items():
            work.setdefault(name, {})
            work[name][key] = work[name].get(key, 0) + value

    def total(name):
        return totals.get(name, 0.0)

    def amount(name, key):
        return work.get(name, {}).get(key, 0)

    def rate(numerator, seconds):
        return numerator / seconds if seconds > 0 else 0.0

    notes = []

    def pct(name):
        values = durations.get(name, [])
        if not values:
            return 0.0, 0.0
        p, enough = _percentile_label(len(values))
        notes.append(
            f"{name}: p{p} of {len(values)} calls"
            + ("" if enough else " (fewer than ten calls beyond it)")
        )
        return 1e3 * _percentile(values, 50), 1e3 * _percentile(values, p)

    fwd_p50, fwd_p9x = pct("neuralcore.forward")
    opt_p50, opt_p9x = pct("neuralcore.optimizer")
    timed = [i for i, s in enumerate(tracer.spans) if s[4] == "timed"]
    accounted = sum(own[i] for i in timed)
    forward_gflop = amount("neuralcore.forward", "flop") / 1e9
    backward_gflop = amount("neuralcore.backward", "flop") / 1e9
    optimizer_gb = amount("neuralcore.optimizer", "bytes") / 1e9
    values = {
        "data.load_store_s": total("data.load_store"),
        "data.load_store_mb_per_s": rate(amount("data.load_store", "bytes") / 1e6,
                                         total("data.load_store")),
        "data.parse_trials_s": total("data.parse_trials"),
        "data.gather_s": total("data.gather"),
        "data.gather_calls": counts.get("data.gather", 0),
        "data.gather_rows": amount("data.gather", "rows"),
        "data.write_store_s": total("data.write_store"),
        "sampling.pairs_s": total("sampling.pairs"),
        "sampling.pairs_per_s": rate(amount("sampling.pairs", "items"),
                                     total("sampling.pairs")),
        "sampling.triplets_s": total("sampling.triplets"),
        "sampling.triplets_per_s": rate(amount("sampling.triplets", "items"),
                                        total("sampling.triplets")),
        "sampling.synth_s": total("sampling.synth"),
        "neuralcore.forward_s": total("neuralcore.forward"),
        "neuralcore.forward_calls": counts.get("neuralcore.forward", 0),
        "neuralcore.forward_rows": amount("neuralcore.forward", "rows"),
        "neuralcore.forward_gflop": forward_gflop,
        "neuralcore.forward_gflops": rate(forward_gflop, total("neuralcore.forward")),
        "neuralcore.forward_ms_p50": fwd_p50,
        "neuralcore.forward_ms_p9x": fwd_p9x,
        "neuralcore.backward_s": total("neuralcore.backward"),
        "neuralcore.backward_gflop": backward_gflop,
        "neuralcore.backward_gflops": rate(backward_gflop, total("neuralcore.backward")),
        "neuralcore.optimizer_s": total("neuralcore.optimizer"),
        "neuralcore.optimizer_steps": counts.get("neuralcore.optimizer", 0),
        "neuralcore.optimizer_gb": optimizer_gb,
        "neuralcore.optimizer_gbps": rate(optimizer_gb, total("neuralcore.optimizer")),
        "neuralcore.optimizer_ms_p50": opt_p50,
        "neuralcore.optimizer_ms_p9x": opt_p9x,
        "models.train_glue_s": total("models.train_glue"),
        "models.score_resolve_s": total("models.score_resolve"),
        "models.score_batch_s": total("models.score_batch"),
        "models.encoder_useful_ratio": rate(tracer.encoder_useful, tracer.encoder_rows),
        "models.checkpoint_s": total("models.checkpoint"),
        "models.checkpoint_mb": amount("models.checkpoint", "bytes") / 1e6,
        "metrics.eer_s": total("metrics.eer"),
        "metrics.evaluate_self_s": total("metrics.evaluate"),
        "cli.write_scores_s": total("cli.write_scores"),
        "cli.parse_scores_s": total("cli.parse_scores"),
        "cli.self_s": total("cli.main"),
        "trace.overhead_pct": 100.0 * tracer.overhead / traced_wall,
        "trace.accounted_pct": 100.0 * accounted / traced_wall,
        "trace.spans": len(timed),
        "trace.missing": len(tracer.missing),
    }
    # a metric fed by a boundary that is gone reads -1, never a silent zero
    for name in values:
        feeds = _FEEDS.get(name, ())
        if any(name.startswith(span + "_") or span in feeds for span in missing_spans):
            values[name] = -1.0
    for site in tracer.missing:
        notes.append(f"MISSING boundary {site}: its metrics read -1")
    return values, notes

