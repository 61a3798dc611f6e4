"""The online feature store behind the serving decision path.

:class:`AnalyticsFeatureProvider` is the concrete
:class:`~repro.serving.service.FeatureProvider`: it owns a
:class:`~repro.analytics.registry.ViewRegistry` with a sliding-window
aggregator and a degree-velocity tracker over the event source, plus a
bounded :class:`~repro.analytics.topk.TopKView` of the scorer's risk
logits fed out-of-band through :meth:`observe_scores`.

Per scored micro-batch the serving loop calls :meth:`lookup` (pure O(batch)
gathers — the decision path), then :meth:`observe_scores` and
:meth:`advance` (view maintenance — off the critical path).  When a live
:class:`~repro.obs.telemetry.Telemetry` is bound, lookups appear as
``features.lookup`` spans and every fold as ``features.advance``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..obs import NULL_TELEMETRY
from ..serving.service import FeatureProvider
from .registry import ViewRegistry
from .topk import TopKView
from .velocity import DegreeVelocity
from .watermark import WatermarkPolicy
from .windows import WindowAggregator

if TYPE_CHECKING:  # pragma: no cover - type-only import (avoids a cycle)
    from ..graph.batching import EventBatch

__all__ = ["FEATURE_NAMES", "AnalyticsFeatureProvider"]

# Columns of the (batch, 8) matrix lookup() returns, in order.
FEATURE_NAMES = (
    "src_window_count",   # events touching src inside the sliding window
    "dst_window_count",
    "src_fraud_rate",     # label mean of src's in-window events
    "dst_fraud_rate",
    "src_out_degree",     # cumulative degrees since stream start
    "dst_in_degree",
    "src_burst",          # mean/last inter-arrival ratio (burst score)
    "dst_burst",
)


class AnalyticsFeatureProvider(FeatureProvider):
    """Incrementally maintained per-node features for the decision path.

    ``source`` is anything :class:`~repro.analytics.registry.ViewRegistry`
    accepts: an :class:`~repro.storage.event_store.EventStore` or a
    :class:`~repro.storage.graph_view.GraphView` over one — it must expose
    ``num_nodes``, ``num_events`` and the ``src``/``dst``/``timestamps``/
    ``labels`` column properties.  ``window`` is the sliding-window width in
    the stream's own time unit.
    """

    def __init__(self, source, window: float, num_buckets: int = 16,
                 top_k: int = 10, telemetry=NULL_TELEMETRY,
                 watermark_policy: WatermarkPolicy | None = None,
                 event_times=None):
        num_nodes = int(source.num_nodes)
        self.windows = WindowAggregator(num_nodes, window,
                                        num_buckets=num_buckets,
                                        policy=watermark_policy)
        self.velocity = DegreeVelocity(num_nodes)
        self.topk = TopKView(top_k)
        self.registry = ViewRegistry(source, telemetry=telemetry,
                                     event_times=event_times)
        self.registry.register("window", self.windows)
        self.registry.register("velocity", self.velocity)
        self.telemetry = telemetry

    # ------------------------------------------------------------------ #
    # FeatureProvider interface
    # ------------------------------------------------------------------ #
    def bind_telemetry(self, telemetry) -> None:
        self.telemetry = telemetry
        self.registry.telemetry = telemetry

    def set_watermark_policy(self, policy: WatermarkPolicy) -> None:
        """Install a late-event policy; must precede the first fold.

        Called by :class:`~repro.serving.service.ServingLoop` when
        it was handed an explicit ``watermark_policy`` — folds that already
        happened under another policy cannot be re-adjudicated, so this
        raises once anything has been published.
        """
        if policy == self.windows.policy:
            return  # idempotent re-install, fine at any point
        if self.registry.folded:
            raise RuntimeError(
                f"cannot change the watermark policy after "
                f"{self.registry.folded} rows were folded under "
                f"{self.windows.policy}")
        self.windows.policy = policy

    @property
    def watermark_policy(self) -> WatermarkPolicy:
        return self.windows.policy

    def late_accounting(self) -> dict:
        """Late-event bookkeeping of the window view (policy outcomes)."""
        return {
            "policy": str(self.windows.policy),
            "late_admitted": int(self.windows.late_admitted),
            "late_dropped": int(self.windows.late_dropped),
        }

    def lookup(self, batch: EventBatch) -> np.ndarray:
        """The (len(batch), 8) feature matrix for a micro-batch of arrivals.

        Columns follow :data:`FEATURE_NAMES`.  Pure gathers against the
        already-folded view state — the features describe the *published*
        stream prefix, never the batch being decided.
        """
        with self.telemetry.span("features.lookup", arg=len(batch)):
            src = np.asarray(batch.src, dtype=np.int64)
            dst = np.asarray(batch.dst, dtype=np.int64)
            size = len(src)
            # One gather per view array over both endpoints; row ``i`` of
            # ``nodes`` is src ``i``, row ``size + i`` is dst ``i``.
            nodes = np.concatenate((src, dst))
            counts, rates = self.windows.count_and_rate(nodes)
            bursts = self.velocity.burst_score(nodes)
            features = np.empty((size, len(FEATURE_NAMES)), dtype=np.float64)
            features[:, 0] = counts[:size]
            features[:, 1] = counts[size:]
            features[:, 2] = rates[:size]
            features[:, 3] = rates[size:]
            features[:, 4] = self.velocity.out_degree[src]
            features[:, 5] = self.velocity.in_degree[dst]
            features[:, 6] = bursts[:size]
            features[:, 7] = bursts[size:]
        return features

    def observe_scores(self, batch: EventBatch, scores: np.ndarray) -> None:
        """Track the scorer's risk logits per destination account."""
        self.topk.update(batch.dst, scores)

    def advance(self, hi: int | None = None) -> int:
        """Publish store rows ``[0, hi)`` to the window/velocity views."""
        return self.registry.advance(hi)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def folded(self) -> int:
        return self.registry.folded

    def top_risks(self, k: int | None = None) -> list[tuple[int, float]]:
        """The current top-k (node, risk score) pairs."""
        return self.topk.top(k)

    def snapshot(self) -> dict:
        """A JSON-friendly summary of the feature store's state."""
        return {
            "rows_folded": self.registry.folded,
            "watermark_time": self.windows.watermark_time,
            "watermark_policy": str(self.windows.policy),
            "late_dropped": self.windows.late_dropped,
            "late_admitted": self.windows.late_admitted,
            "top_risks": [[int(node), float(score)]
                          for node, score in self.topk.top()],
            "topk_heap_size": self.topk.heap_size,
            "topk_compactions": self.topk.num_compactions,
            "memory_bytes": self.registry.memory_footprint_bytes(),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"AnalyticsFeatureProvider(folded={self.registry.folded}, "
                f"window={self.windows.window}, k={self.topk.k})")
