"""The consolidated percentile implementation must match what it replaced.

``repro.obs.summary`` deduplicated four independent p50/p95/p99 computations
(serving report, latency harness, runtime lag aggregation, bench writers).
These tests pin the consolidation bit-for-bit: ``summarize``/``percentiles``
must equal the exact ``np.percentile``/``np.median`` expressions that used to
live at each call site, so routing through the shared helper changed no
number anywhere.
"""

import numpy as np
import pytest

from repro.obs import HistogramSummary, percentiles, summarize
from repro.obs.metrics import DEFAULT_HIST_BOUNDS


@pytest.fixture(params=[3, 17, 100, 999])
def samples(request):
    rng = np.random.default_rng(request.param)
    return rng.lognormal(mean=0.0, sigma=1.5, size=request.param)


class TestExactEquivalence:
    """Regression pin: identical output to the replaced call sites."""

    def test_percentiles_match_numpy(self, samples):
        p50, p95, p99 = percentiles(samples)
        assert p50 == float(np.percentile(samples, 50))
        assert p95 == float(np.percentile(samples, 95))
        assert p99 == float(np.percentile(samples, 99))

    def test_summarize_p50_equals_median(self, samples):
        # eval/timing.py used np.median; percentile(50) is bit-identical.
        assert summarize(samples).p50 == float(np.median(samples))

    def test_summarize_mean_min_max_count(self, samples):
        summary = summarize(samples)
        assert summary.mean == float(np.asarray(samples, dtype=np.float64).mean())
        assert summary.min == float(samples.min())
        assert summary.max == float(samples.max())
        assert summary.count == len(samples)

    def test_serving_report_unchanged(self):
        # The exact expressions _percentile_report used before the dedupe.
        rng = np.random.default_rng(7)
        latencies = list(rng.exponential(5.0, size=251))
        from repro.serving.service import _percentile_report
        report = _percentile_report("inline", latencies, [1.0, 2.0], 251,
                                    mean_async_lag_ms=0.0)
        arr = np.asarray(latencies)
        assert report.mean_decision_ms == float(arr.mean())
        assert report.p50_decision_ms == float(np.percentile(arr, 50))
        assert report.p95_decision_ms == float(np.percentile(arr, 95))
        assert report.p99_decision_ms == float(np.percentile(arr, 99))
        assert report.decision_latencies_ms == arr.tolist()

    def test_latency_result_p99_in_dict(self):
        from repro.eval.timing import LatencyResult
        result = LatencyResult(mean_ms=1.0, median_ms=1.0, p95_ms=2.0,
                               num_batches=4, batch_size=10, p99_ms=3.0)
        assert result.as_dict()["p99_ms"] == 3.0


class TestEdgeCases:
    def test_empty_input(self):
        assert percentiles([]) == (0.0, 0.0, 0.0)
        summary = summarize([])
        assert summary == HistogramSummary.empty()
        assert summary.count == 0

    def test_single_value(self):
        summary = summarize([4.25])
        assert summary.p50 == summary.p95 == summary.p99 == 4.25
        assert summary.min == summary.max == summary.mean == 4.25

    def test_custom_quantiles(self):
        values = np.arange(101, dtype=np.float64)
        (p25,) = percentiles(values, qs=(25.0,))
        assert p25 == 25.0

    def test_as_dict_rounding(self):
        summary = summarize([1.23456, 7.89012])
        rounded = summary.as_dict(round_to=2)
        assert rounded["min"] == 1.23
        assert rounded["count"] == 2


class TestBucketApproximation:
    """from_buckets: the shared-memory histogram's approximate quantiles."""

    def test_counts_length_validated(self):
        with pytest.raises(ValueError, match="overflow"):
            HistogramSummary.from_buckets([1.0, 2.0], [1, 2], 3.0, 0.5, 1.5)

    def test_empty_buckets(self):
        counts = np.zeros(len(DEFAULT_HIST_BOUNDS) + 1)
        summary = HistogramSummary.from_buckets(DEFAULT_HIST_BOUNDS, counts,
                                                0.0, np.inf, -np.inf)
        assert summary == HistogramSummary.empty()

    def test_quantiles_within_observed_range(self):
        rng = np.random.default_rng(11)
        values = rng.lognormal(1.0, 2.0, size=2000)
        bounds = np.asarray(DEFAULT_HIST_BOUNDS)
        counts = np.zeros(len(bounds) + 1)
        for v in values:
            counts[int(np.searchsorted(bounds, v, side="left"))] += 1
        summary = HistogramSummary.from_buckets(
            bounds, counts, total_sum=float(values.sum()),
            value_min=float(values.min()), value_max=float(values.max()))
        assert summary.count == len(values)
        assert summary.mean == pytest.approx(values.mean())
        assert summary.min <= summary.p50 <= summary.p95 <= summary.p99 <= summary.max
        # Doubling buckets: each estimate is within one bucket (2x) of exact.
        assert summary.p50 == pytest.approx(np.percentile(values, 50), rel=1.0)
        assert summary.p99 == pytest.approx(np.percentile(values, 99), rel=1.0)
