"""Incremental derived analytics: the online feature store over the stream.

The serving decision path needs per-node features ("how active was this
account over the last window", "how bursty are its arrivals", "which
accounts look riskiest right now") that would cost O(history) to recompute
per decision.  This package maintains them *incrementally*: each view folds
every published event exactly once, queries are O(1)-ish gathers, and the
maintenance cost per event is independent of stream length.

* :class:`WindowAggregator` — sliding-window counts / label sums / rates on
  a ring of buckets.
* :class:`DegreeVelocity` — cumulative degrees, inter-arrival deltas and
  burst scores.
* :class:`TopKView` — bounded top-k of the scorer's risk scores (heap with
  lazy eviction).
* :class:`ViewRegistry` — the exactly-once publishing protocol between an
  event store and its views (``advance(hi)`` mirrors
  :meth:`~repro.storage.graph_view.GraphView.extend_to`), raising
  :class:`StaleStoreError` rather than folding rows a writer has not
  published.
* :class:`AnalyticsFeatureProvider` — the
  :class:`~repro.serving.service.FeatureProvider` implementation that plugs
  the above into :class:`~repro.serving.service.ServingLoop`.
* :mod:`repro.analytics.recompute` — recompute-from-scratch oracles; the
  incremental state must equal them bit for bit at every publish point
  (pinned by the hypothesis suite in ``tests/analytics/``).

See ``docs/ANALYTICS.md`` for the design.
"""

from .provider import FEATURE_NAMES, AnalyticsFeatureProvider
from .recompute import recompute_topk, recompute_velocity, recompute_window
from .registry import StaleStoreError, ViewRegistry
from .topk import TopKView
from .velocity import DegreeVelocity
from .watermark import WatermarkPolicy
from .windows import WindowAggregator

__all__ = [
    "WatermarkPolicy",
    "WindowAggregator",
    "DegreeVelocity",
    "TopKView",
    "ViewRegistry",
    "StaleStoreError",
    "AnalyticsFeatureProvider",
    "FEATURE_NAMES",
    "recompute_window",
    "recompute_velocity",
    "recompute_topk",
]
