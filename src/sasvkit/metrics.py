"""Equal error rate evaluation over labeled verification trials.

Three metrics share one scoring pass: SV-EER uses target vs. nontarget
trials, SPF-EER uses target vs. spoof trials, and SASV-EER pools both
negative classes. The EER itself places an operating point at every distinct
score (accepting a trial when its score is greater than or equal to the
threshold) and linearly interpolates the crossing of the false-acceptance and
false-rejection curves.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import TRIAL_LABELS, TrialList, TrialRecord

METRIC_NAMES = ("sv", "spf", "sasv")
# positive label and negative labels per metric
_METRIC_SIDES = {
    "sv": ("target", ("nontarget",)),
    "spf": ("target", ("spoof",)),
    "sasv": ("target", ("nontarget", "spoof")),
}


@dataclass(frozen=True)
class ScoredTrial:
    """A trial together with the score a system assigned to it."""

    trial: TrialRecord
    score: float

    @property
    def label(self) -> str:
        return self.trial.label


class ScoredTrials(Sequence):
    """A trial list with one float64 score per trial.

    It reads as a sequence of ScoredTrials, built on demand. ``cm_fallbacks``
    counts the distinct enrollments scored with the CM store-wide mean
    because none of their utterances has a CM embedding.
    """

    def __init__(self, trials: TrialList, scores, cm_fallbacks: int = 0):
        self.trials = trials
        self.scores = np.ascontiguousarray(scores, dtype=np.float64)
        self.cm_fallbacks = cm_fallbacks

    def __len__(self) -> int:
        return len(self.scores)

    def __getitem__(self, i):
        return ScoredTrial(self.trials[i], float(self.scores[i]))

    def __iter__(self):
        return map(ScoredTrial, self.trials, self.scores.tolist())

    def __eq__(self, other):
        if not isinstance(other, Sequence):
            return NotImplemented
        return list(self) == list(other)


def _as_scored_trials(scored_trials) -> ScoredTrials:
    """A ScoredTrials as is; any other iterable of ScoredTrial, converted."""
    if isinstance(scored_trials, ScoredTrials):
        return scored_trials
    items = list(scored_trials)
    return ScoredTrials(TrialList.from_records(s.trial for s in items),
                        np.array([s.score for s in items], dtype=np.float64))


def compute_eer(positive_scores, negative_scores) -> tuple:
    """Equal error rate and threshold for score-above-threshold acceptance.

    Returns ``(eer, threshold)`` with the EER as a fraction in [0, 1]. The
    FAR/FRR curves are evaluated at every distinct score; where they cross
    between two operating points, both the rate and the threshold are
    linearly interpolated.
    """
    pos = np.asarray(positive_scores, dtype=np.float64)
    neg = np.asarray(negative_scores, dtype=np.float64)
    if pos.size == 0 or neg.size == 0:
        raise ValueError("both positive and negative scores are required")
    if not (np.all(np.isfinite(pos)) and np.all(np.isfinite(neg))):
        raise ValueError("scores must be finite")

    thresholds = np.unique(np.concatenate([pos, neg]))
    thresholds = np.append(thresholds, thresholds[-1] + 1.0)
    pos_sorted = np.sort(pos)
    neg_sorted = np.sort(neg)
    # accept iff score >= threshold
    far = (neg.size - np.searchsorted(neg_sorted, thresholds, side="left")) / neg.size
    frr = np.searchsorted(pos_sorted, thresholds, side="left") / pos.size
    # the sentinel rejects every trial, also from 2**53 on, where max + 1.0 == max
    far[-1], frr[-1] = 0.0, 1.0
    diff = far - frr  # non-increasing from 1 to -1

    idx = int(np.argmax(diff <= 0.0))
    if diff[idx] == 0.0:
        return float(far[idx]), float(thresholds[idx])
    t = diff[idx - 1] / (diff[idx - 1] - diff[idx])
    eer = far[idx - 1] + t * (far[idx] - far[idx - 1])
    threshold = thresholds[idx - 1] + t * (thresholds[idx] - thresholds[idx - 1])
    return float(eer), float(threshold)


def _metric_masks(codes: np.ndarray, metric: str) -> tuple:
    """Boolean masks of the positive and the negative side of a metric."""
    if metric not in _METRIC_SIDES:
        raise ValueError(f"metric must be one of {METRIC_NAMES}, got {metric!r}")
    pos_label, neg_labels = _METRIC_SIDES[metric]
    negatives = np.isin(codes, [TRIAL_LABELS.index(label) for label in neg_labels])
    return codes == TRIAL_LABELS.index(pos_label), negatives


def subset_trials(scored_trials, metric: str) -> tuple:
    """Split scored trials into the positive and negative side of a metric."""
    scored = _as_scored_trials(scored_trials)
    pos, neg = _metric_masks(scored.trials.label_codes, metric)
    return [scored[i] for i in np.flatnonzero(pos)], [scored[i] for i in np.flatnonzero(neg)]


def _histogram(scores: np.ndarray, codes: np.ndarray, bins: int) -> tuple:
    if bins < 1:
        raise ValueError("bins must be at least 1")
    if not scores.size:
        raise ValueError("no trials to histogram")
    lo, hi = float(scores.min()), float(scores.max())
    if lo == hi:
        lo, hi = lo - 0.5, hi + 0.5
    edges = np.linspace(lo, hi, bins + 1)
    counts = {}
    for i, label in enumerate(TRIAL_LABELS):
        counts[label], _ = np.histogram(scores[codes == i], bins=edges)
    return edges, counts


@dataclass
class EvalReport:
    """EERs (as percentages), thresholds, trial counts, and a histogram."""

    eer_percent: dict
    threshold: dict
    n_positive: dict
    n_negative: dict
    label_counts: dict
    histogram_edges: np.ndarray
    histogram_counts: dict


def evaluate_system(scored_trials, bins: int = 30) -> EvalReport:
    """Compute all three EERs; a metric with an empty side stays absent."""
    scored = _as_scored_trials(scored_trials)
    if not len(scored):
        raise ValueError("no scored trials to evaluate")
    scores, codes = scored.scores, scored.trials.label_codes
    lo, hi = float(scores.min()), float(scores.max())
    if not np.isfinite(2.0 * (hi - lo)):  # histogram edges take up to twice the span
        if not np.isfinite(scores).all():
            raise ValueError("scores must be finite")
        raise ValueError(f"scores span {lo!r} to {hi!r}, too wide for float64 arithmetic")
    eer_percent = {}
    threshold = {}
    n_positive = {}
    n_negative = {}
    for metric in METRIC_NAMES:
        pos, neg = _metric_masks(codes, metric)
        n_positive[metric] = int(pos.sum())
        n_negative[metric] = int(neg.sum())
        if n_positive[metric] and n_negative[metric]:
            eer, thr = compute_eer(scores[pos], scores[neg])
            eer_percent[metric] = 100.0 * eer
            threshold[metric] = thr
        else:
            eer_percent[metric] = None
            threshold[metric] = None
    label_counts = {
        label: int(np.count_nonzero(codes == i)) for i, label in enumerate(TRIAL_LABELS)
    }
    edges, counts = _histogram(scores, codes, bins)
    return EvalReport(
        eer_percent=eer_percent,
        threshold=threshold,
        n_positive=n_positive,
        n_negative=n_negative,
        label_counts=label_counts,
        histogram_edges=edges,
        histogram_counts=counts,
    )


def format_report_text(report: EvalReport) -> str:
    """Key-value rendering with EERs at two decimals."""
    lines = []
    for metric in METRIC_NAMES:
        eer = report.eer_percent[metric]
        if eer is None:
            lines.append(f"{metric}_eer_percent = absent")
            lines.append(f"{metric}_threshold = absent")
        else:
            lines.append(f"{metric}_eer_percent = {eer:.2f}")
            lines.append(f"{metric}_threshold = {report.threshold[metric]!r}")
        lines.append(f"{metric}_n_positive = {report.n_positive[metric]}")
        lines.append(f"{metric}_n_negative = {report.n_negative[metric]}")
    for label in TRIAL_LABELS:
        lines.append(f"n_{label} = {report.label_counts[label]}")
    return "\n".join(lines) + "\n"


def format_report_csv(report: EvalReport) -> str:
    lines = ["metric,eer_percent,threshold,n_pos,n_neg"]
    for metric in METRIC_NAMES:
        eer = report.eer_percent[metric]
        eer_txt = "" if eer is None else f"{eer:.2f}"
        thr = report.threshold[metric]
        thr_txt = "" if thr is None else repr(thr)
        lines.append(
            f"{metric},{eer_txt},{thr_txt},"
            f"{report.n_positive[metric]},{report.n_negative[metric]}"
        )
    return "\n".join(lines) + "\n"


def format_histogram_csv(report: EvalReport) -> str:
    lines = ["label,bin_low,bin_high,count"]
    edges = report.histogram_edges
    for label in TRIAL_LABELS:
        for i, count in enumerate(report.histogram_counts[label]):
            lines.append(
                f"{label},{float(edges[i])!r},{float(edges[i + 1])!r},{int(count)}"
            )
    return "\n".join(lines) + "\n"


def write_report(report: EvalReport, out_dir) -> None:
    """Write report.txt, report.csv, and histogram.csv into out_dir."""
    out = Path(out_dir)
    (out / "report.txt").write_text(format_report_text(report), encoding="utf-8")
    (out / "report.csv").write_text(format_report_csv(report), encoding="utf-8")
    (out / "histogram.csv").write_text(format_histogram_csv(report), encoding="utf-8")
