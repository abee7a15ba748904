"""Unit tests for verification scores, comparisons, and breakdowns."""

from __future__ import annotations

import numpy as np
import pytest

from repro.inference import LatencyModel, extract_idle_with_model
from repro.metrics import (
    average_idle_us,
    idle_breakdown,
    intt_breakdown,
    intt_cdf,
    intt_gap_stats,
    ks_distance,
    score_inference,
)
from repro.trace import BlockTrace
from repro.workloads import inject_idles
from repro.workloads.idle_injection import InjectionRecord


def gap_trace(gaps: list[float]) -> BlockTrace:
    ts = np.concatenate([[0.0], np.cumsum(gaps)])
    n = len(ts)
    return BlockTrace(ts, np.arange(n) * 8, np.full(n, 8), np.zeros(n, dtype=int))


class TestScoreInference:
    def _record(self, indices, periods, n_gaps) -> InjectionRecord:
        return InjectionRecord(
            gap_indices=np.asarray(indices, dtype=int),
            periods_us=np.asarray(periods, dtype=float),
            n_gaps=n_gaps,
        )

    def test_perfect_detection(self):
        record = self._record([1, 3], [100.0, 200.0], 5)
        estimates = np.array([0.0, 100.0, 0.0, 200.0, 0.0])
        score = score_inference(record, estimates)
        assert score.tp == 2 and score.fp == 0 and score.fn == 0 and score.tn == 3
        assert score.detection_tp == 1.0
        assert score.detection_fp == 0.0
        assert score.len_tp == pytest.approx(1.0)

    def test_partial_length_recovery(self):
        record = self._record([0], [100.0], 2)
        score = score_inference(record, np.array([60.0, 0.0]))
        assert score.len_tp == pytest.approx(0.6)

    def test_overestimates_clamped(self):
        record = self._record([0], [100.0], 2)
        score = score_inference(record, np.array([500.0, 0.0]))
        assert score.len_tp == 1.0

    def test_false_positive_length(self):
        record = self._record([0], [100.0], 3)
        score = score_inference(record, np.array([100.0, 40.0, 0.0]))
        assert score.fp == 1
        assert score.len_fp_us == pytest.approx(40.0)
        np.testing.assert_allclose(score.len_fp_samples, [40.0])

    def test_false_negatives_counted(self):
        record = self._record([0, 1], [100.0, 100.0], 3)
        score = score_inference(record, np.array([0.0, 50.0, 0.0]))
        assert score.fn == 1 and score.tp == 1
        assert score.detection_tp == 0.5

    def test_min_idle_threshold(self):
        record = self._record([0], [100.0], 2)
        score = score_inference(record, np.array([5.0, 0.0]), min_idle_us=10.0)
        assert score.tp == 0 and score.fn == 1

    def test_length_mismatch_rejected(self):
        record = self._record([0], [100.0], 3)
        with pytest.raises(ValueError):
            score_inference(record, np.array([0.0]))

    def test_as_dict(self):
        record = self._record([0], [100.0], 2)
        d = score_inference(record, np.array([100.0, 0.0])).as_dict()
        assert d["tp"] == 1 and "detection_tp" in d


class TestInttBreakdown:
    def test_classification(self):
        ref = gap_trace([100.0, 100.0, 100.0])
        rec = gap_trace([100.0, 200.0, 40.0])
        b = intt_breakdown(rec, ref)
        assert b.equal == pytest.approx(1 / 3)
        assert b.longer == pytest.approx(1 / 3)
        assert b.shorter == pytest.approx(1 / 3)

    def test_tolerance_bands(self):
        ref = gap_trace([100.0])
        rec = gap_trace([104.0])  # within 5% rel tolerance
        assert intt_breakdown(rec, ref).equal == 1.0

    def test_abs_tolerance_for_tiny_gaps(self):
        ref = gap_trace([1.0])
        rec = gap_trace([2.5])  # diff 1.5 < abs tolerance 2
        assert intt_breakdown(rec, ref).equal == 1.0

    def test_percentages(self):
        ref = gap_trace([100.0, 100.0])
        rec = gap_trace([500.0, 500.0])
        pct = intt_breakdown(rec, ref).as_percentages()
        assert pct["longer"] == 100.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            intt_breakdown(gap_trace([1.0]), gap_trace([1.0, 2.0]))


class TestGapStats:
    def test_stats(self):
        a = gap_trace([100.0, 300.0])
        b = gap_trace([150.0, 100.0])
        stats = intt_gap_stats(a, b)
        assert stats["mean_us"] == pytest.approx(125.0)
        assert stats["max_us"] == pytest.approx(200.0)
        assert stats["mean_signed_us"] == pytest.approx(75.0)

    def test_identical_traces(self):
        a = gap_trace([10.0, 20.0])
        assert intt_gap_stats(a, a)["mean_us"] == 0.0


class TestDistributionDistances:
    def test_ks_zero_for_identical(self):
        a = gap_trace([10.0, 20.0, 30.0] * 10)
        assert ks_distance(a, a) == 0.0

    def test_ks_large_for_shifted(self):
        a = gap_trace([10.0] * 50)
        b = gap_trace([10_000.0] * 50)
        assert ks_distance(a, b) == pytest.approx(1.0)

    def test_intt_cdf_clips_zeros(self):
        t = gap_trace([0.0, 10.0])
        cdf = intt_cdf(t)
        assert cdf.min > 0


class TestIdleBreakdown:
    def _extraction(self, gaps, tsdev=40.0):
        model = LatencyModel(tsdev / 8, tsdev / 8, 0.0, 0.0, 0.0)
        return extract_idle_with_model(gap_trace(list(gaps)), model)

    def test_bucket_assignment(self):
        # idle = gap - 40: [0, 5ms, 50ms, 500ms]
        ex = self._extraction([40.0, 5_040.0, 50_040.0, 500_040.0])
        b = idle_breakdown(ex)
        assert b.frequency["Tslat"] == pytest.approx(0.25)
        assert b.frequency["0-10ms"] == pytest.approx(0.25)
        assert b.frequency["10-100ms"] == pytest.approx(0.25)
        assert b.frequency[">100ms"] == pytest.approx(0.25)

    def test_period_dominated_by_long_idles(self):
        ex = self._extraction([40.0] * 9 + [1_000_040.0])
        b = idle_breakdown(ex)
        # One second of idle vs microseconds of service.
        assert b.period[">100ms"] > 0.99
        assert b.idle_frequency() == pytest.approx(0.1)

    def test_fractions_sum_to_one(self):
        ex = self._extraction([40.0, 100.0, 20_000.0, 500_000.0, 45.0])
        b = idle_breakdown(ex)
        assert sum(b.frequency.values()) == pytest.approx(1.0)
        assert sum(b.period.values()) == pytest.approx(1.0)

    def test_average_idle(self):
        ex = self._extraction([40.0, 140.0, 240.0])
        # idles: 0 (excluded), 100, 200.
        assert average_idle_us(ex) == pytest.approx(150.0)

    def test_no_idle_trace(self):
        ex = self._extraction([40.0, 40.0])
        assert average_idle_us(ex) == 0.0
        assert idle_breakdown(ex).idle_frequency() == 0.0


class TestEndToEndVerification:
    def test_injection_detected_on_known_tsdev_trace(self, old_trace):
        # Inject 50 ms idles into an MSPS-style trace and verify the
        # measured-tsdev path finds nearly all of them.
        injected, record = inject_idles(old_trace, period_us=50_000.0, fraction=0.1)
        from repro.inference import extract_idle

        ex = extract_idle(injected)
        score = score_inference(record, ex.tidle_us, min_idle_us=1.0)
        assert score.detection_tp > 0.95
        assert score.len_tp > 0.9
