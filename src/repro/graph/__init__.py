"""Temporal graph substrate: samplers, snapshots, static views, batching.

The graph itself is a :class:`~repro.storage.graph_view.GraphView` over an
:class:`~repro.storage.event_store.EventStore` (``repro.storage``).
"""

from .batching import EventBatch, iterate_batches, num_batches
from .neighbor_sampler import (
    MostRecentNeighborSampler,
    NeighborBatch,
    NeighborSample,
    TemporalNeighborSampler,
    TimeWeightedNeighborSampler,
    UniformNeighborSampler,
    make_sampler,
)
from .snapshots import build_snapshots, snapshot_boundaries
from .static_graph import StaticGraph

__all__ = [
    "StaticGraph",
    "NeighborSample",
    "NeighborBatch",
    "TemporalNeighborSampler",
    "MostRecentNeighborSampler",
    "UniformNeighborSampler",
    "TimeWeightedNeighborSampler",
    "make_sampler",
    "build_snapshots",
    "snapshot_boundaries",
    "EventBatch",
    "iterate_batches",
    "num_batches",
]
