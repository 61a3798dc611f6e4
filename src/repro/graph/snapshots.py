"""Discrete-time dynamic graph (DTDG) snapshot builder.

The paper contrasts CTDG models with snapshot-based DTDG models (Figure 1c).
This module converts a temporal graph into a sequence of static snapshots so
that the comparison (and its failure modes: lost intra-snapshot ordering,
window-size sensitivity) can be demonstrated in the examples and tests.
"""

from __future__ import annotations

import numpy as np

from .static_graph import StaticGraph
from ..storage.graph_view import GraphView

__all__ = ["build_snapshots", "snapshot_boundaries"]


def snapshot_boundaries(graph: GraphView, num_snapshots: int) -> np.ndarray:
    """Equal-width time boundaries covering the graph's timespan.

    Returns ``num_snapshots + 1`` boundary values; snapshot ``i`` covers
    ``[boundaries[i], boundaries[i+1])`` except the last, which is closed on
    the right so the final event is not dropped.
    """
    if num_snapshots <= 0:
        raise ValueError("num_snapshots must be positive")
    timestamps = graph.timestamps
    if len(timestamps) == 0:
        return np.linspace(0.0, 1.0, num_snapshots + 1)
    start, stop = float(timestamps.min()), float(timestamps.max())
    if start == stop:
        stop = start + 1.0
    return np.linspace(start, stop, num_snapshots + 1)


def build_snapshots(graph: GraphView, num_snapshots: int) -> list[StaticGraph]:
    """Split a temporal graph into ``num_snapshots`` static snapshots."""
    boundaries = snapshot_boundaries(graph, num_snapshots)
    snapshots: list[StaticGraph] = []
    for index in range(num_snapshots):
        start, stop = boundaries[index], boundaries[index + 1]
        if index == num_snapshots - 1:
            stop = np.nextafter(stop, np.inf)
        window = graph.slice_time(start, stop)
        snapshots.append(StaticGraph.from_temporal(window))
    return snapshots
