"""Sliding-window per-node aggregates on a ring of buckets.

:class:`WindowAggregator` maintains, for every node, event counts and label
sums over a sliding window of event time — the "fraud rate over the last W
seconds" feature family.  The layout is the classic **ring of buckets**: the
window is divided into ``num_buckets`` equal-width time buckets, stored as
columns of two ``(num_nodes, num_buckets)`` arrays.  Folding a batch is a
pair of 1-D ``np.add.at`` scatters on the raveled rings (O(batch));
advancing the watermark by k buckets clears k columns (O(min(k, num_buckets))
column writes) — **never** a walk over stored events, which is what makes
per-event maintenance cost independent of history length (the
constant-delay discipline of "Answering FO+MOD queries under updates";
``benchmarks/test_analytics_throughput.py`` asserts the flatness).

Window semantics are bucket-granular: a query covers the ``num_buckets``
live buckets, i.e. between ``window - bucket_width`` and ``window`` time
units behind the watermark depending on where the watermark sits inside its
bucket.  That is the standard precision/state trade of ring aggregation —
raise ``num_buckets`` for a sharper window edge.

Late events (timestamps behind the watermark) are governed by an explicit
:class:`~repro.analytics.watermark.WatermarkPolicy`.  Under the default
``admit`` policy — the pre-policy behaviour — lateness itself never rejects
an event: one whose bucket is still live folds into that bucket exactly as
if it had arrived on time, and only an event older than the ring horizon
(``watermark_bucket - num_buckets + 1``) is dropped and counted in
:attr:`WindowAggregator.late_dropped` — it could only land in a bucket that
has already been expired and cleared.  ``fold-late`` additionally drops
events more than a declared lateness behind the watermark, and ``drop``
rejects anything behind it.  Admitted events that were late at all are
counted in :attr:`WindowAggregator.late_admitted`.  Lateness is measured
against the running occurrence-time prefix maximum, so policy decisions do
not depend on batch boundaries.  The watermark itself never moves
backwards.  ``tests/analytics/test_views.py`` and
``tests/scenarios/test_watermark_policy.py`` pin these behaviours.
"""

from __future__ import annotations

import math

import numpy as np

from .watermark import WatermarkPolicy

__all__ = ["WindowAggregator"]


class WindowAggregator:
    """Per-node sliding-window counts, label sums and rates (ring of buckets).

    Parameters
    ----------
    num_nodes:
        Size of the node id space.
    window:
        Sliding-window span in event-time units.
    num_buckets:
        Ring resolution; each bucket covers ``window / num_buckets`` time.
    policy:
        The :class:`~repro.analytics.watermark.WatermarkPolicy` governing
        late events; ``WatermarkPolicy.admit()`` (the pre-policy behaviour)
        when omitted.
    """

    def __init__(self, num_nodes: int, window: float, num_buckets: int = 16,
                 policy: WatermarkPolicy | None = None):
        if num_nodes <= 0:
            raise ValueError("num_nodes must be positive")
        if window <= 0:
            raise ValueError("window must be positive")
        if num_buckets <= 0:
            raise ValueError("num_buckets must be positive")
        self.num_nodes = num_nodes
        self.window = float(window)
        self.num_buckets = int(num_buckets)
        self.policy = policy if policy is not None else WatermarkPolicy.admit()
        self.bucket_width = self.window / self.num_buckets
        # Ring state: column ``b % num_buckets`` holds absolute bucket ``b``
        # while it is live.  Counts are float64 on purpose: the recompute
        # oracle adds the same values through the same ``np.add.at`` order,
        # so equality is exact (bit-for-bit), and one dtype serves both
        # counts and label sums.
        self.counts = np.zeros((num_nodes, num_buckets), dtype=np.float64)
        self.label_sums = np.zeros((num_nodes, num_buckets), dtype=np.float64)
        self._watermark_bucket: int | None = None  # absolute id of newest bucket
        self.watermark_time = -np.inf
        self.late_dropped = 0    # rejected by policy or by the ring horizon
        self.late_admitted = 0   # folded despite arriving behind the watermark
        self.num_folded = 0

    # ------------------------------------------------------------------ #
    # Maintenance
    # ------------------------------------------------------------------ #
    def _bucket_of(self, timestamps: np.ndarray) -> np.ndarray:
        return np.floor(np.asarray(timestamps, dtype=np.float64)
                        / self.bucket_width).astype(np.int64)

    @property
    def watermark_bucket(self) -> int | None:
        """Absolute id of the newest bucket ever folded (None while empty)."""
        return self._watermark_bucket

    @property
    def horizon_bucket(self) -> int | None:
        """Oldest absolute bucket still live; events below it are dropped."""
        if self._watermark_bucket is None:
            return None
        return self._watermark_bucket - self.num_buckets + 1

    def advance_watermark(self, time: float) -> None:
        """Move the watermark to ``time``, expiring buckets that fall out.

        O(min(buckets crossed, num_buckets)) column clears, independent of
        how many events the expired buckets held.  Never moves backwards.
        """
        self.watermark_time = max(self.watermark_time, float(time))
        new_bucket = math.floor(float(time) / self.bucket_width)
        if self._watermark_bucket is None:
            self._watermark_bucket = new_bucket
            return
        if new_bucket <= self._watermark_bucket:
            return
        steps = min(new_bucket - self._watermark_bucket, self.num_buckets)
        # The slots entering the window [wm+1, new_bucket] — at most one
        # full ring revolution, so the slot ids are distinct.
        entering = (np.arange(new_bucket - steps + 1, new_bucket + 1)
                    % self.num_buckets)
        self.counts[:, entering] = 0.0
        self.label_sums[:, entering] = 0.0
        self._watermark_bucket = new_bucket

    def lateness_of(self, timestamps: np.ndarray) -> np.ndarray:
        """Per-event lateness against the running occurrence-time watermark.

        Event ``i`` of the block is late by ``max(0, prefix_i - t_i)`` where
        ``prefix_i`` is the maximum of the aggregator's watermark before
        this block and all earlier timestamps *within* it.  The prefix
        depends only on the stream's global order, never on where batch
        boundaries fall — which is what makes policy decisions identical
        between chunked folds and one-shot recomputation.
        """
        timestamps = np.asarray(timestamps, dtype=np.float64).reshape(-1)
        if not len(timestamps):
            return timestamps
        prefix = np.maximum.accumulate(
            np.concatenate(([self.watermark_time], timestamps[:-1])))
        return np.maximum(0.0, prefix - timestamps)

    def fold(self, src: np.ndarray, dst: np.ndarray, timestamps: np.ndarray,
             labels: np.ndarray, first_row: int = 0) -> None:
        """Fold one event block: both endpoints count, labels accumulate.

        The uniform view interface :meth:`ViewRegistry.advance` calls.
        Occurrence order is per event, source endpoint before destination —
        the same order the recompute oracle uses, which is what makes label
        sums bit-equal between incremental and batch recomputation.  Late
        events are admitted or rejected by :attr:`policy` first (on their
        batch-independent lateness), then by the ring horizon; both kinds
        of rejection are counted in :attr:`late_dropped`.
        """
        del first_row  # windows do not need row ids
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        timestamps = np.asarray(timestamps, dtype=np.float64)
        labels = np.asarray(labels, dtype=np.float64)
        if not len(src):
            return
        buckets = self._bucket_of(timestamps)
        lateness = self.lateness_of(timestamps)
        admitted = self.policy.admit_mask(lateness)
        # The watermark tracks the newest occurrence time *observed*, folded
        # or not — a rejected straggler must not hold time back.
        self.advance_watermark(float(timestamps.max()))
        live = admitted & (buckets >= self.horizon_bucket)
        folded = int(np.count_nonzero(live))
        self.late_dropped += len(src) - folded
        self.num_folded += len(src)
        if not folded:
            return
        self.late_admitted += int(np.count_nonzero(lateness[live] > 0))
        # One flat cell index ``node * num_buckets + slot`` per occurrence,
        # per event src then dst, scattered with 1-D ``np.add.at`` on the
        # raveled ring: the cells and their order of a 2-D ``(node, slot)``
        # scatter, so the sums stay bit-identical.
        cells = np.empty((folded, 2), dtype=np.int64)
        cells[:, 0] = src[live]
        cells[:, 1] = dst[live]
        cells *= self.num_buckets
        cells += (buckets[live] % self.num_buckets)[:, None]
        cells = cells.reshape(-1)
        np.add.at(self.counts.reshape(-1), cells, 1.0)
        np.add.at(self.label_sums.reshape(-1), cells, np.repeat(labels[live], 2))

    # ------------------------------------------------------------------ #
    # Queries (pure array gathers; O(len(nodes) * num_buckets))
    # ------------------------------------------------------------------ #
    def count(self, nodes: np.ndarray) -> np.ndarray:
        """Window event count per node (as either endpoint)."""
        nodes = np.asarray(nodes, dtype=np.int64)
        return self.counts[nodes].sum(axis=-1)

    def label_sum(self, nodes: np.ndarray) -> np.ndarray:
        """Window label sum per node (e.g. number of fraud-flagged events)."""
        nodes = np.asarray(nodes, dtype=np.int64)
        return self.label_sums[nodes].sum(axis=-1)

    def rate(self, nodes: np.ndarray) -> np.ndarray:
        """Window mean label per node — the sliding fraud rate (0 if idle)."""
        return self.count_and_rate(nodes)[1]

    def count_and_rate(self, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(count(nodes), rate(nodes))`` from one gather of each ring."""
        counts = self.count(nodes)
        sums = self.label_sum(nodes)
        return counts, np.divide(sums, counts, out=np.zeros_like(sums),
                                 where=counts > 0)

    def memory_footprint_bytes(self) -> int:
        return self.counts.nbytes + self.label_sums.nbytes

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"WindowAggregator(num_nodes={self.num_nodes}, "
                f"window={self.window}, num_buckets={self.num_buckets}, "
                f"folded={self.num_folded})")
