"""Dataset container and chronological train/validation/test splitting.

The evaluation protocol of the paper (following TGAT/TGN):

* events are split chronologically 70% / 15% / 15% (Wikipedia, Reddit) or by
  days (Alipay: 10d / 2d / 2d);
* nodes that never appear in the training window are "unseen" and define the
  inductive evaluation subset (Table 1 reports their counts);
* node features are all-zero (the datasets carry only edge features), so the
  container stores edge features and dynamic labels.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..storage.event_store import EventStore
from ..storage.graph_view import GraphView
from .timedelta import TimeDelta

__all__ = ["TemporalDataset", "DatasetSplit", "chronological_split"]


@dataclass
class DatasetSplit:
    """Index ranges of a chronological split plus inductive-node bookkeeping."""

    train_end: int
    val_end: int
    num_events: int
    train_nodes: np.ndarray
    old_eval_nodes: np.ndarray
    unseen_eval_nodes: np.ndarray

    @property
    def train_range(self) -> tuple[int, int]:
        return 0, self.train_end

    @property
    def val_range(self) -> tuple[int, int]:
        return self.train_end, self.val_end

    @property
    def test_range(self) -> tuple[int, int]:
        return self.val_end, self.num_events


@dataclass
class TemporalDataset:
    """A temporal interaction dataset in the JODIE schema.

    Attributes
    ----------
    name:
        Human-readable dataset name ("wikipedia", "reddit", "alipay", ...).
    src, dst:
        Integer node ids per event.  For bipartite datasets, destination ids
        are offset so the id spaces do not overlap (as in the JODIE loaders).
    timestamps:
        Non-decreasing event times (seconds since the first event).
    edge_features:
        Float matrix (num_events, edge_feature_dim).
    labels:
        Dynamic per-event state labels (e.g. 1 if the user gets banned in this
        interaction / the transaction is fraudulent).
    bipartite:
        Whether sources and destinations come from disjoint node sets.
    label_kind:
        "node" when the label describes the source node's future state
        (Wikipedia/Reddit editing/posting bans) or "edge" when it describes the
        interaction itself (Alipay fraudulent transaction).
    event_times:
        Optional true occurrence times when ``timestamps`` are *arrival*
        times of an out-of-order stream (the ``late_events`` scenario):
        ``event_times[i] <= timestamps[i]`` per event, and the array is in
        general **not** sorted — its disorder, bounded by the scenario's
        declared max lateness, is exactly what watermark policies act on.
        ``None`` for in-order streams (timestamps == occurrence times).
    time_delta:
        The granularity of one timestamp unit (:class:`TimeDelta`); seconds
        by default, matching the JODIE convention.
    """

    name: str
    src: np.ndarray
    dst: np.ndarray
    timestamps: np.ndarray
    edge_features: np.ndarray
    labels: np.ndarray
    bipartite: bool = True
    label_kind: str = "node"
    metadata: dict = field(default_factory=dict)
    event_times: np.ndarray | None = None
    time_delta: TimeDelta = field(default_factory=lambda: TimeDelta("s"))

    def __post_init__(self):
        self.src = np.asarray(self.src, dtype=np.int64)
        self.dst = np.asarray(self.dst, dtype=np.int64)
        self.timestamps = np.asarray(self.timestamps, dtype=np.float64)
        self.edge_features = np.asarray(self.edge_features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.float64)
        self.time_delta = TimeDelta.from_any(self.time_delta)
        if self.event_times is not None:
            self.event_times = np.asarray(self.event_times, dtype=np.float64)
            if len(self.event_times) != len(self.timestamps):
                raise ValueError("event_times must align with timestamps")
            if np.any(self.event_times > self.timestamps):
                raise ValueError(
                    "event_times must not exceed their arrival timestamps "
                    "(an event cannot arrive before it happened)")
        lengths = {len(self.src), len(self.dst), len(self.timestamps),
                   len(self.edge_features), len(self.labels)}
        if len(lengths) != 1:
            raise ValueError("all event arrays must have the same length")
        if len(self.timestamps) > 1 and np.any(np.diff(self.timestamps) < 0):
            order = np.argsort(self.timestamps, kind="stable")
            self.src = self.src[order]
            self.dst = self.dst[order]
            self.timestamps = self.timestamps[order]
            self.edge_features = self.edge_features[order]
            self.labels = self.labels[order]
            if self.event_times is not None:
                self.event_times = self.event_times[order]
        if self.label_kind not in ("node", "edge"):
            raise ValueError("label_kind must be 'node' or 'edge'")

    # ------------------------------------------------------------------ #
    @property
    def num_events(self) -> int:
        return len(self.src)

    @property
    def num_nodes(self) -> int:
        if self.num_events == 0:
            return 0
        return int(max(self.src.max(), self.dst.max())) + 1

    @property
    def edge_feature_dim(self) -> int:
        return self.edge_features.shape[1] if self.edge_features.ndim == 2 else 0

    @property
    def timespan(self) -> float:
        if self.num_events == 0:
            return 0.0
        return float(self.timestamps[-1] - self.timestamps[0])

    @property
    def num_labeled(self) -> int:
        """Number of events carrying a positive dynamic label."""
        return int((self.labels > 0).sum())

    def lateness(self) -> np.ndarray:
        """Per-event lateness against the running event-time watermark.

        For arrival-ordered streams (``event_times`` set) this is
        ``max(event_times[:i+1]) - event_times[i]`` — how far behind the
        newest occurrence time already seen each event arrives, the quantity
        a :class:`~repro.analytics.watermark.WatermarkPolicy` bounds.  All
        zeros for in-order streams.
        """
        times = self.event_times if self.event_times is not None \
            else self.timestamps
        if len(times) == 0:
            return np.zeros(0, dtype=np.float64)
        return np.maximum.accumulate(times) - times

    def to_temporal_graph(self) -> GraphView:
        """The full event stream as a live :class:`GraphView` over an
        in-memory :meth:`to_event_store`."""
        return GraphView(self.to_event_store())

    def to_event_store(self, path=None, batch_size: int = 100_000):
        """Load the stream into a columnar :class:`~repro.storage.EventStore`.

        With ``path`` the store is mmap-backed on disk (attachable from other
        processes); without, it lives in memory.  Events are appended in
        ``batch_size`` chunks, so peak memory stays bounded by the chunk even
        for streams much larger than RAM when writing to disk.
        """
        if path is None:
            store = EventStore(self.num_nodes, self.edge_feature_dim)
        else:
            store = EventStore.create_mmap(
                path, num_nodes=self.num_nodes,
                edge_feature_dim=self.edge_feature_dim,
                capacity=max(1024, self.num_events))
        for start in range(0, self.num_events, batch_size):
            stop = min(start + batch_size, self.num_events)
            store.append_batch(self.src[start:stop], self.dst[start:stop],
                               self.timestamps[start:stop],
                               self.edge_features[start:stop],
                               self.labels[start:stop])
        return store

    def split(self, train_fraction: float = 0.70,
              val_fraction: float = 0.15) -> DatasetSplit:
        """Chronological split following the paper's 70/15/15 protocol."""
        return chronological_split(self, train_fraction, val_fraction)

    def split_by_time(self, train_seconds: float, val_seconds: float) -> DatasetSplit:
        """Split by absolute durations (Alipay protocol: 10 days / 2 days / 2 days)."""
        if self.num_events == 0:
            raise ValueError("cannot split an empty dataset")
        start = self.timestamps[0]
        train_end = int(np.searchsorted(self.timestamps, start + train_seconds, side="left"))
        val_end = int(np.searchsorted(self.timestamps, start + train_seconds + val_seconds,
                                      side="left"))
        return _build_split(self, train_end, val_end)


def chronological_split(dataset: TemporalDataset, train_fraction: float = 0.70,
                        val_fraction: float = 0.15) -> DatasetSplit:
    """Split events chronologically by fractions of the event count."""
    if not (0 < train_fraction < 1 and 0 < val_fraction < 1):
        raise ValueError("fractions must lie in (0, 1)")
    if train_fraction + val_fraction >= 1:
        raise ValueError("train + val fractions must leave room for a test set")
    num_events = dataset.num_events
    train_end = int(round(train_fraction * num_events))
    val_end = int(round((train_fraction + val_fraction) * num_events))
    return _build_split(dataset, train_end, val_end)


def _build_split(dataset: TemporalDataset, train_end: int, val_end: int) -> DatasetSplit:
    num_events = dataset.num_events
    train_end = max(1, min(train_end, num_events - 2))
    val_end = max(train_end + 1, min(val_end, num_events - 1))
    train_nodes = np.unique(np.concatenate([
        dataset.src[:train_end], dataset.dst[:train_end]
    ]))
    eval_nodes = np.unique(np.concatenate([
        dataset.src[train_end:], dataset.dst[train_end:]
    ]))
    train_set = set(train_nodes.tolist())
    old_eval = np.asarray([n for n in eval_nodes if n in train_set], dtype=np.int64)
    unseen_eval = np.asarray([n for n in eval_nodes if n not in train_set], dtype=np.int64)
    return DatasetSplit(
        train_end=train_end,
        val_end=val_end,
        num_events=num_events,
        train_nodes=train_nodes,
        old_eval_nodes=old_eval,
        unseen_eval_nodes=unseen_eval,
    )
