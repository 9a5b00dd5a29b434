"""Tests for EER computation and report assembly."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sasvkit.data import TrialRecord
from sasvkit.metrics import (
    EvalReport,
    ScoredTrial,
    compute_eer,
    evaluate_system,
    format_histogram_csv,
    format_report_csv,
    format_report_text,
    subset_trials,
)


def brute_force_eer(positive_scores, negative_scores):
    """Independent oracle: count errors at every distinct score via loops."""
    pos = [float(s) for s in positive_scores]
    neg = [float(s) for s in negative_scores]
    thresholds = sorted(set(pos + neg))
    thresholds.append(thresholds[-1] + 1.0)
    points = []
    for theta in thresholds:
        far = sum(1 for s in neg if s >= theta) / len(neg)
        frr = sum(1 for s in pos if s < theta) / len(pos)
        points.append((theta, far, frr))
    previous = None
    for theta, far, frr in points:
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


def make_trial(label, i=0):
    return TrialRecord(f"SPK{i}", (f"E{i}",), f"T{label}{i}", label)


def scored(label, score, i=0):
    return ScoredTrial(make_trial(label, i), score)


class TestComputeEer:
    def test_perfect_separation(self):
        eer, thr = compute_eer([0.9, 0.8], [0.1, 0.2])
        assert eer == 0.0
        assert 0.2 < thr <= 0.8

    def test_inverted_system(self):
        eer, _ = compute_eer([0.1], [0.9])
        assert eer == 1.0

    def test_interior_crossing(self):
        eer, thr = compute_eer([0.9, 0.8, 0.4], [0.6, 0.2, 0.1])
        assert abs(eer - 1.0 / 3.0) < 1e-12
        assert thr == 0.6

    def test_constant_scores(self):
        eer, _ = compute_eer([0.5, 0.5, 0.5], [0.5, 0.5])
        assert abs(eer - 0.5) < 1e-12

    def test_empty_side_rejected(self):
        with pytest.raises(ValueError):
            compute_eer([], [0.1])
        with pytest.raises(ValueError):
            compute_eer([0.1], [])

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            compute_eer([np.nan], [0.0])

    def test_matches_oracle_on_known_awkward_sets(self):
        cases = [
            ([0.5], [0.5]),
            ([1.0, 1.0, 0.0], [1.0, 0.0]),
            ([0.3, 0.3, 0.7], [0.3, 0.3, 0.3]),
            ([2.0, -1.0], [0.0]),
            ([0.0, 0.25, 0.5, 0.75, 1.0], [0.0, 0.25, 0.5, 0.75, 1.0]),
        ]
        for pos, neg in cases:
            eer, thr = compute_eer(pos, neg)
            oracle_eer, oracle_thr = brute_force_eer(pos, neg)
            assert abs(eer - oracle_eer) < 1e-9
            assert abs(thr - oracle_thr) < 1e-9

    @settings(max_examples=120, deadline=None)
    @given(st.data())
    def test_matches_oracle_on_random_sets(self, data):
        n_pos = data.draw(st.integers(1, 60))
        n_neg = data.draw(st.integers(1, 60))
        seed = data.draw(st.integers(0, 2**32 - 1))
        rng = np.random.default_rng(seed)
        # coarse grid injects plenty of ties, including across the two sides
        pos = rng.choice(np.linspace(-1, 1, 9), size=n_pos) + rng.integers(0, 2) * 0.25
        neg = rng.choice(np.linspace(-1, 1, 9), size=n_neg)
        eer, thr = compute_eer(pos, neg)
        oracle_eer, oracle_thr = brute_force_eer(pos, neg)
        assert abs(eer - oracle_eer) < 1e-9
        assert abs(thr - oracle_thr) < 1e-9

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 40), st.integers(1, 40))
    def test_swap_maps_eer_to_complement(self, seed, n_pos, n_neg):
        rng = np.random.default_rng(seed)
        pos = rng.choice(np.linspace(0, 1, 7), size=n_pos)
        neg = rng.choice(np.linspace(0, 1, 7), size=n_neg)
        eer, _ = compute_eer(pos, neg)
        swapped, _ = compute_eer(neg, pos)
        assert abs((1.0 - eer) - swapped) < 1e-9

    def test_invariant_to_increasing_transform(self):
        rng = np.random.default_rng(8)
        pos = rng.normal(1.0, 0.5, size=30)
        neg = rng.normal(0.0, 0.5, size=40)
        base, _ = compute_eer(pos, neg)
        affine, _ = compute_eer(3.0 * pos + 2.0, 3.0 * neg + 2.0)
        squashed, _ = compute_eer(np.tanh(pos), np.tanh(neg))
        assert abs(base - affine) < 1e-12
        assert abs(base - squashed) < 1e-12

    @pytest.mark.parametrize("scale", [2.0**53, 2.0**60, 2.0**1000])
    def test_reject_all_point_holds_beyond_2_pow_53(self, scale):
        # from 2**53 on, max + 1.0 == max; the sentinel must still reject every trial
        rng = np.random.default_rng(9)
        pos = rng.normal(1.0, 0.5, size=30)
        neg = rng.normal(0.0, 0.5, size=40)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            eer, thr = compute_eer(scale * pos, scale * neg)
        base, base_thr = compute_eer(pos, neg)
        assert eer == base
        assert np.isfinite(thr) and min(pos.min(), neg.min()) * scale <= thr

    def test_constant_scores_beyond_2_pow_53(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            eer, thr = compute_eer([1e17, 1e17], [1e17])
        assert (eer, thr) == (0.5, 1e17)

    def test_balanced_random_scores_near_half(self):
        rng = np.random.default_rng(123)
        pos = rng.standard_normal(4000)
        neg = rng.standard_normal(4000)
        eer, _ = compute_eer(pos, neg)
        assert 0.47 < eer < 0.53


class TestSubsetTrials:
    def trials(self):
        out = []
        for i in range(10):
            out.append(scored("target", 0.9 - 0.01 * i, i))
        for i in range(10):
            out.append(scored("nontarget", 0.1 + 0.01 * i, i))
        for i in range(10):
            out.append(scored("spoof", 0.4 + 0.01 * i, i))
        return out

    def test_side_sizes(self):
        trials = self.trials()
        sv_pos, sv_neg = subset_trials(trials, "sv")
        spf_pos, spf_neg = subset_trials(trials, "spf")
        sasv_pos, sasv_neg = subset_trials(trials, "sasv")
        assert len(sv_pos) + len(sv_neg) == 20
        assert len(spf_pos) + len(spf_neg) == 20
        assert len(sasv_pos) + len(sasv_neg) == 30
        assert all(s.label == "target" for s in sasv_pos)
        assert {s.label for s in sasv_neg} == {"nontarget", "spoof"}

    def test_unknown_metric_rejected(self):
        with pytest.raises(ValueError):
            subset_trials(self.trials(), "det")


class TestEvaluateSystem:
    def test_perfect_system(self):
        trials = (
            [scored("target", 0.9, i) for i in range(5)]
            + [scored("nontarget", 0.1, i) for i in range(5)]
            + [scored("spoof", 0.2, i) for i in range(5)]
        )
        report = evaluate_system(trials)
        assert report.eer_percent["sv"] == 0.0
        assert report.eer_percent["spf"] == 0.0
        assert report.eer_percent["sasv"] == 0.0
        assert report.n_positive["sasv"] == 5
        assert report.n_negative["sasv"] == 10

    def test_missing_side_reported_absent(self):
        trials = [scored("target", 0.9, i) for i in range(3)] + [
            scored("spoof", 0.5, i) for i in range(3)
        ]
        report = evaluate_system(trials)
        assert report.eer_percent["sv"] is None
        assert report.threshold["sv"] is None
        assert report.eer_percent["spf"] is not None
        text = format_report_text(report)
        assert "sv_eer_percent = absent" in text

    def test_percent_scale(self):
        trials = [scored("target", 1.0, 1), scored("target", 0.0, 2),
                  scored("nontarget", 1.0, 3), scored("nontarget", 0.0, 4)]
        report = evaluate_system(trials)
        assert abs(report.eer_percent["sv"] - 50.0) < 1e-9

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            evaluate_system([])

    @pytest.mark.parametrize("labels", [("target", "nontarget"), ("target", "target")])
    def test_span_wider_than_float64_is_refused(self, labels):
        trials = [scored(labels[0], -1e308, 0), scored(labels[1], 1e308, 1)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError,
                               match=r"^scores span -1e\+308 to 1e\+308, too wide for float64"):
                evaluate_system(trials)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_score_is_refused_without_a_full_metric(self, bad):
        # no metric has both sides, so only the histogram would have seen it
        trials = [scored("target", bad, 0), scored("target", 0.5, 1)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^scores must be finite$"):
                evaluate_system(trials)

    def test_widest_accepted_span_is_evaluated(self):
        quarter = np.finfo(np.float64).max / 4
        trials = [scored("target", quarter, 0), scored("nontarget", -quarter, 1)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = evaluate_system(trials)
        assert report.eer_percent["sv"] == 0.0
        assert sum(int(c.sum()) for c in report.histogram_counts.values()) == 2


class TestHistogram:
    def test_counts_conserved(self):
        rng = np.random.default_rng(0)
        trials = [scored("target", float(s), i) for i, s in enumerate(rng.normal(1, 1, 40))]
        trials += [scored("spoof", float(s), i) for i, s in enumerate(rng.normal(0, 1, 25))]
        report = evaluate_system(trials, bins=12)
        edges, counts = report.histogram_edges, report.histogram_counts
        assert len(edges) == 13
        assert counts["target"].sum() == 40
        assert counts["spoof"].sum() == 25
        assert counts["nontarget"].sum() == 0

    def test_identical_scores_get_padded_range(self):
        trials = [scored("target", 0.5, i) for i in range(4)]
        report = evaluate_system(trials, bins=4)
        edges, counts = report.histogram_edges, report.histogram_counts
        assert edges[0] < 0.5 < edges[-1]
        assert counts["target"].sum() == 4

    @pytest.mark.parametrize("value", [0.0, -3.25, 2.0**40])
    def test_ordinary_identical_scores_keep_the_half_unit_pad(self, value):
        report = evaluate_system([scored("target", value, i) for i in range(3)], bins=30)
        expected = np.linspace(value - 0.5, value + 0.5, 31)
        assert report.histogram_edges.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("bins", [1, 2, 30, 1000])
    @pytest.mark.parametrize("value", [2.0**53, 1e17, -1e17, 1e300, -1.7976931348623157e308])
    def test_identical_scores_beyond_2_pow_53_get_increasing_edges(self, value, bins):
        report = evaluate_system([scored("target", value, i) for i in range(3)], bins=bins)
        edges, counts = report.histogram_edges, report.histogram_counts["target"]
        assert np.isfinite(edges).all() and (np.diff(edges) > 0).all()
        (full,) = np.flatnonzero(counts)
        assert edges[full] <= value <= edges[full + 1] and counts[full] == 3

    def test_bad_bins_rejected(self):
        with pytest.raises(ValueError):
            evaluate_system([scored("target", 0.1)], bins=0)


class TestReportFormatting:
    def make_report(self):
        trials = (
            [scored("target", 0.8 + 0.01 * i, i) for i in range(6)]
            + [scored("nontarget", 0.1 + 0.01 * i, i) for i in range(6)]
            + [scored("spoof", 0.4 + 0.02 * i, i) for i in range(6)]
        )
        return evaluate_system(trials)

    def test_text_keys(self):
        text = format_report_text(self.make_report())
        for key in ("sv_eer_percent", "spf_eer_percent", "sasv_eer_percent",
                    "sasv_threshold", "n_target", "n_spoof"):
            assert key in text

    def test_csv_shape(self):
        csv = format_report_csv(self.make_report())
        lines = csv.strip().splitlines()
        assert lines[0] == "metric,eer_percent,threshold,n_pos,n_neg"
        assert len(lines) == 4
        assert lines[1].startswith("sv,")

    def test_histogram_csv_parses(self):
        report = self.make_report()
        lines = format_histogram_csv(report).strip().splitlines()
        assert lines[0] == "label,bin_low,bin_high,count"
        total = 0
        for line in lines[1:]:
            label, lo, hi, count = line.split(",")
            assert float(hi) > float(lo)
            total += int(count)
        assert total == 18
