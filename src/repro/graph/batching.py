"""Event batching for CTDG training and streaming inference.

CTDG models process the event stream in chronological mini-batches (the paper
uses a batch size of 200).  :class:`EventBatch` is the unit of work consumed
by APAN and every dynamic baseline; :func:`iterate_batches` produces them from
a :class:`~repro.storage.graph_view.GraphView` slice.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..storage.graph_view import GraphView

__all__ = ["EventBatch", "iterate_batches", "num_batches"]


@dataclass
class EventBatch:
    """A chronological batch of interaction events.

    Attributes mirror the event tuple of the paper, vectorised over the batch:
    ``src``/``dst`` node ids, ``timestamps``, ``edge_features``, ``labels``
    (dynamic state labels, e.g. ban / fraud flags) and the global ``edge_ids``.
    """

    src: np.ndarray
    dst: np.ndarray
    timestamps: np.ndarray
    edge_features: np.ndarray
    labels: np.ndarray
    edge_ids: np.ndarray
    negatives: np.ndarray | None = field(default=None)

    def __len__(self) -> int:
        return len(self.src)

    @property
    def nodes(self) -> np.ndarray:
        """Unique nodes touched by this batch (sources then destinations)."""
        return np.unique(np.concatenate([self.src, self.dst]))

    @property
    def start_time(self) -> float:
        return float(self.timestamps[0]) if len(self.timestamps) else 0.0

    @property
    def end_time(self) -> float:
        return float(self.timestamps[-1]) if len(self.timestamps) else 0.0

    def with_negatives(self, negatives: np.ndarray) -> "EventBatch":
        """Return a copy of the batch carrying sampled negative destinations."""
        return EventBatch(
            src=self.src, dst=self.dst, timestamps=self.timestamps,
            edge_features=self.edge_features, labels=self.labels,
            edge_ids=self.edge_ids, negatives=np.asarray(negatives, dtype=np.int64),
        )


def num_batches(num_events: int, batch_size: int) -> int:
    """Number of batches needed to cover ``num_events`` events."""
    if batch_size <= 0:
        raise ValueError("batch_size must be positive")
    return (num_events + batch_size - 1) // batch_size


def iterate_batches(graph: GraphView, batch_size: int,
                    start: int = 0, stop: int | None = None):
    """Yield :class:`EventBatch` objects covering events ``[start, stop)``.

    Events inside a batch keep their chronological order; the models treat the
    batch as arriving simultaneously (which is exactly the information-loss
    effect Figure 8 of the paper studies).
    """
    if batch_size <= 0:
        raise ValueError("batch_size must be positive")
    stop = graph.num_events if stop is None else min(stop, graph.num_events)
    src, dst = graph.src, graph.dst
    timestamps, labels = graph.timestamps, graph.labels
    features = graph.edge_features
    for begin in range(start, stop, batch_size):
        end = min(begin + batch_size, stop)
        indices = np.arange(begin, end)
        yield EventBatch(
            src=src[indices],
            dst=dst[indices],
            timestamps=timestamps[indices],
            edge_features=features[indices],
            labels=labels[indices],
            edge_ids=indices,
        )
