"""Fixed-layout shared-memory metrics: counters, gauges, histograms.

Layout: every metric owns one row per *writer* (process slot).  Writer ``w``
only ever writes row ``w`` of each array, so no locks are needed — the scorer
process aggregates live by reducing over the writer axis (sum for counters,
per-writer values for gauges, bucket sums for histograms) while the workers
keep publishing.  Nothing is pickled after setup; an update is a NumPy
scalar write into a ``multiprocessing.shared_memory`` page both sides map.

Histograms are fixed exponential buckets (:data:`DEFAULT_HIST_BOUNDS`, tuned
for millisecond latencies) plus one overflow bucket, with exact running
``sum``/``count``/``min``/``max`` per writer — so the aggregated
:class:`~repro.obs.summary.HistogramSummary` has an exact mean and
bucket-interpolated p50/p95/p99.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field

import numpy as np

from ._shm import BundleHandle, SharedArrayBundle
from .summary import HistogramSummary

__all__ = ["DEFAULT_HIST_BOUNDS", "MetricsSpec", "SharedMetrics", "MetricsHandle"]

# Upper bucket edges in milliseconds: 1µs .. ~134s, doubling.  Wide enough
# for queue-ride times on a loaded box and sub-encode spans alike.
DEFAULT_HIST_BOUNDS = tuple(0.001 * 2.0 ** i for i in range(28))


@dataclass(frozen=True)
class MetricsSpec:
    """Declares every metric up front — the shared layout is fixed at create."""

    counters: tuple = ()
    gauges: tuple = ()
    histograms: tuple = ()
    hist_bounds: tuple = DEFAULT_HIST_BOUNDS

    def __post_init__(self):
        for names in (self.counters, self.gauges, self.histograms):
            if len(set(names)) != len(names):
                raise ValueError("duplicate metric names in spec")
        if list(self.hist_bounds) != sorted(self.hist_bounds):
            raise ValueError("hist_bounds must be sorted ascending")


@dataclass(frozen=True)
class MetricsHandle:
    """Picklable attach recipe for :meth:`SharedMetrics.attach`."""

    spec: MetricsSpec
    num_writers: int
    bundle: BundleHandle = field(default_factory=BundleHandle)


def _array_specs(spec: MetricsSpec, num_writers: int) -> dict:
    buckets = len(spec.hist_bounds) + 1
    return {
        "counters": ((num_writers, len(spec.counters)), np.float64),
        "gauges": ((num_writers, len(spec.gauges)), np.float64),
        "hist_counts": ((num_writers, len(spec.histograms), buckets), np.float64),
        "hist_sum": ((num_writers, len(spec.histograms)), np.float64),
        "hist_count": ((num_writers, len(spec.histograms)), np.float64),
        "hist_min": ((num_writers, len(spec.histograms)), np.float64),
        "hist_max": ((num_writers, len(spec.histograms)), np.float64),
    }


class SharedMetrics:
    """One process creates (and owns) the segments; workers attach a writer slot."""

    def __init__(self, spec: MetricsSpec, num_writers: int, writer: int,
                 bundle: SharedArrayBundle):
        if not 0 <= writer < num_writers:
            raise ValueError(f"writer must be in [0, {num_writers}), got {writer}")
        self.spec = spec
        self.num_writers = num_writers
        self.writer = writer
        self._bundle = bundle
        self._counter_ids = {name: i for i, name in enumerate(spec.counters)}
        self._gauge_ids = {name: i for i, name in enumerate(spec.gauges)}
        self._hist_ids = {name: i for i, name in enumerate(spec.histograms)}
        self._bounds = np.asarray(spec.hist_bounds, dtype=np.float64)
        # bisect over a list is ~9x cheaper than np.searchsorted on a scalar.
        self._bound_list = [float(b) for b in spec.hist_bounds]
        self._cache_rows()

    def _cache_rows(self) -> None:
        """Writer-row views for the hot path (refreshed on release)."""
        w = self.writer
        self._my_counters = self._bundle["counters"][w]
        self._my_gauges = self._bundle["gauges"][w]
        self._my_hist_counts = self._bundle["hist_counts"][w]
        self._my_hist_sum = self._bundle["hist_sum"][w]
        self._my_hist_count = self._bundle["hist_count"][w]
        self._my_hist_min = self._bundle["hist_min"][w]
        self._my_hist_max = self._bundle["hist_max"][w]

    # ------------------------------------------------------------------ #
    @classmethod
    def create(cls, spec: MetricsSpec, num_writers: int,
               writer: int = 0) -> "SharedMetrics":
        bundle = SharedArrayBundle.create(_array_specs(spec, num_writers))
        bundle["gauges"][:] = np.nan          # "never set" marker
        bundle["hist_min"][:] = np.inf
        bundle["hist_max"][:] = -np.inf
        return cls(spec, num_writers, writer, bundle)

    @classmethod
    def attach(cls, handle: MetricsHandle, writer: int) -> "SharedMetrics":
        bundle = SharedArrayBundle.attach(handle.bundle)
        return cls(handle.spec, handle.num_writers, writer, bundle)

    def handle(self) -> MetricsHandle:
        return MetricsHandle(spec=self.spec, num_writers=self.num_writers,
                             bundle=self._bundle.handle())

    def release(self) -> None:
        """Owner: copy private + unlink (snapshots keep working); worker: unmap."""
        self._bundle.release()
        self._cache_rows()

    @property
    def is_shared(self) -> bool:
        return self._bundle.is_shared

    # ------------------------------------------------------------------ #
    # Writer side (each process writes only its own row — lock-free)
    # ------------------------------------------------------------------ #
    def counter_add(self, name: str, value: float = 1.0) -> None:
        self._my_counters[self._counter_ids[name]] += value

    def gauge_set(self, name: str, value: float) -> None:
        self._my_gauges[self._gauge_ids[name]] = value

    def observe(self, name: str, value: float) -> None:
        hist = self._hist_ids[name]
        # NaN sorts last, as np.searchsorted places it: the overflow bucket.
        bucket = bisect_left(self._bound_list, value) if value == value \
            else len(self._bound_list)
        self._my_hist_counts[hist, bucket] += 1.0
        self._my_hist_sum[hist] += value
        self._my_hist_count[hist] += 1.0
        if value < self._my_hist_min[hist]:
            self._my_hist_min[hist] = value
        if value > self._my_hist_max[hist]:
            self._my_hist_max[hist] = value

    # ------------------------------------------------------------------ #
    # Reader side (aggregate across writers, live)
    # ------------------------------------------------------------------ #
    def counter_value(self, name: str) -> float:
        return float(self._bundle["counters"][:, self._counter_ids[name]].sum())

    def gauge_values(self, name: str) -> list:
        """Per-writer gauge values; ``None`` where a writer never set it."""
        column = self._bundle["gauges"][:, self._gauge_ids[name]]
        return [None if np.isnan(v) else float(v) for v in column]

    def histogram_summary(self, name: str) -> HistogramSummary:
        hist = self._hist_ids[name]
        counts = self._bundle["hist_counts"][:, hist, :].sum(axis=0)
        count = self._bundle["hist_count"][:, hist].sum()
        if count <= 0:
            return HistogramSummary.empty()
        return HistogramSummary.from_buckets(
            self._bounds, counts,
            total_sum=float(self._bundle["hist_sum"][:, hist].sum()),
            value_min=float(self._bundle["hist_min"][:, hist].min()),
            value_max=float(self._bundle["hist_max"][:, hist].max()),
        )

    def snapshot(self) -> dict:
        """One coherent-enough live view: metric name -> aggregated value."""
        return {
            "counters": {name: self.counter_value(name)
                         for name in self.spec.counters},
            "gauges": {name: self.gauge_values(name)
                       for name in self.spec.gauges},
            "histograms": {name: self.histogram_summary(name)
                           for name in self.spec.histograms},
        }
