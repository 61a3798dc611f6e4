"""Continuous-time dynamic graph (CTDG) — façade over the storage subsystem.

A CTDG is an ordered stream of interaction events ``(src, dst, t, edge_feat)``
(paper §3.1).  This module provides:

* :class:`Interaction` — a single temporal event.
* :class:`TemporalGraph` — the historical public surface of the event store,
  now a thin façade over the storage/view split in ``repro.storage``:
  an append-only columnar :class:`~repro.storage.event_store.EventStore`
  holds the event columns (optionally ``np.memmap``-backed), and a
  :class:`~repro.storage.graph_view.GraphView` answers every temporal query
  — "edges of node v before time t", the per-node segment adjacency for
  batched neighbour sampling, chronological slicing.

The public API is bit-compatible with the pre-split monolith (pinned by
``tests/storage/test_equivalence.py``), with one upgrade: slicing.
:meth:`TemporalGraph.slice_by_time` and :meth:`TemporalGraph.slice_by_index`
used to materialise full copies; they now return **zero-copy views** sharing
the parent's storage (``np.shares_memory`` holds on every column).  Views
are read-only — appending to one raises, and :meth:`TemporalGraph.materialize`
gives an independent appendable copy when that is what you want.

Storage layout (unchanged in spirit): events live in pre-allocated,
amortised-doubling columns, so appends are O(1) amortised array writes with
no per-event Python objects; the adjacency index is folded incrementally per
appended batch at a cost independent of the stream's length.  See
``src/repro/storage/`` for the underlying pieces; the serving workers route
against the same :class:`~repro.storage.graph_view.GraphView` over a shared
store.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..storage.event_store import EventStore
from ..storage.graph_view import CsrIndex, GraphView

__all__ = ["Interaction", "TemporalGraph"]


@dataclass(frozen=True)
class Interaction:
    """A single temporal interaction event ``(v_i, v_j, e_ij, t)``."""

    src: int
    dst: int
    timestamp: float
    edge_feature: np.ndarray
    edge_id: int
    label: float = 0.0

    def reversed(self) -> "Interaction":
        """The same event seen from the destination node's perspective."""
        return Interaction(
            src=self.dst,
            dst=self.src,
            timestamp=self.timestamp,
            edge_feature=self.edge_feature,
            edge_id=self.edge_id,
            label=self.label,
        )


class TemporalGraph:
    """Append-only store of a continuous-time dynamic multigraph.

    ``TemporalGraph(num_nodes, edge_feature_dim)`` owns a fresh in-memory
    :class:`EventStore`; :meth:`from_store` wraps an existing (possibly
    mmap-backed, possibly attached read-only) store; slicing methods return
    façades over shared-storage views.
    """

    def __init__(self, num_nodes: int, edge_feature_dim: int):
        store = EventStore(num_nodes, edge_feature_dim)
        self._init_from(store, GraphView(store), mutable=True)

    def _init_from(self, store: EventStore, view: GraphView, mutable: bool) -> None:
        self.num_nodes = store.num_nodes
        self.edge_feature_dim = store.edge_feature_dim
        self._store = store
        self._view = view
        self._mutable = mutable

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def from_arrays(cls, src: np.ndarray, dst: np.ndarray, timestamps: np.ndarray,
                    edge_features: np.ndarray, labels: np.ndarray | None = None,
                    num_nodes: int | None = None) -> "TemporalGraph":
        """Build a temporal graph from parallel event arrays (must be time-sorted)."""
        store = EventStore.from_arrays(src, dst, timestamps, edge_features,
                                       labels, num_nodes=num_nodes)
        return cls.from_store(store)

    @classmethod
    def from_store(cls, store: EventStore) -> "TemporalGraph":
        """Wrap an existing :class:`EventStore` (e.g. an mmap attach)."""
        graph = object.__new__(cls)
        graph._init_from(store, GraphView(store), mutable=True)
        return graph

    @classmethod
    def _wrap_view(cls, view: GraphView) -> "TemporalGraph":
        graph = object.__new__(cls)
        graph._init_from(view.store, view, mutable=False)
        return graph

    @property
    def store(self) -> EventStore:
        """The underlying append-only columnar store."""
        return self._store

    @property
    def view(self) -> GraphView:
        """The window of the store this graph exposes."""
        return self._view

    @property
    def is_view(self) -> bool:
        """True for read-only slices sharing another graph's storage."""
        return not self._mutable

    def materialize(self) -> "TemporalGraph":
        """An independent, appendable copy of this graph's events."""
        store = EventStore(self.num_nodes, self.edge_feature_dim)
        store.append_batch(self.src, self.dst, self.timestamps,
                           self.edge_features, self.labels)
        return TemporalGraph.from_store(store)

    def save(self, path: str | Path) -> Path:
        """Persist the events as an mmap-able store layout under ``path``."""
        if self._mutable:
            return self._store.save(path)
        snapshot = EventStore(self.num_nodes, self.edge_feature_dim)
        snapshot.append_batch(self.src, self.dst, self.timestamps,
                              self.edge_features, self.labels)
        return snapshot.save(path)

    # ------------------------------------------------------------------ #
    # Appending
    # ------------------------------------------------------------------ #
    def _check_mutable(self) -> None:
        if not self._mutable:
            raise RuntimeError(
                "this graph is a read-only view sharing another graph's "
                "storage; call materialize() for an appendable copy")

    def add_interaction(self, src: int, dst: int, timestamp: float,
                        edge_feature: np.ndarray, label: float = 0.0) -> int:
        """Append one event; returns its edge id.

        Events must be appended in non-decreasing timestamp order — this is
        the streaming contract a CTDG store relies on (the mailbox mechanism
        of APAN explicitly tolerates *reading* out of order, but the canonical
        store is chronological).
        """
        self._check_mutable()
        if timestamp < self._store.last_timestamp:
            raise ValueError(
                f"events must be appended in chronological order "
                f"(got {timestamp} after {self._store.last_timestamp})"
            )
        if not (0 <= src < self.num_nodes and 0 <= dst < self.num_nodes):
            raise IndexError(f"node id out of range: ({src}, {dst})")
        edge_feature = np.asarray(edge_feature, dtype=np.float64).reshape(-1)
        if len(edge_feature) != self.edge_feature_dim:
            raise ValueError(
                f"edge feature dim mismatch: expected {self.edge_feature_dim}, "
                f"got {len(edge_feature)}"
            )
        edge_ids = self._store.append_batch(
            np.asarray([src]), np.asarray([dst]), np.asarray([timestamp]),
            edge_feature.reshape(1, -1), np.asarray([label]))
        return int(edge_ids[0])

    def add_interactions(self, src: np.ndarray, dst: np.ndarray,
                         timestamps: np.ndarray, edge_features: np.ndarray,
                         labels: np.ndarray | None = None) -> np.ndarray:
        """Bulk-append a chronological block of events; returns their edge ids.

        This is the vectorized counterpart of :meth:`add_interaction`: one
        validation pass and a handful of array copies regardless of the block
        size.  The block must be internally time-sorted and must not precede
        the last stored event.
        """
        self._check_mutable()
        return self._store.append_batch(src, dst, timestamps, edge_features, labels)

    # ------------------------------------------------------------------ #
    # Temporal adjacency
    # ------------------------------------------------------------------ #
    def adjacency(self) -> CsrIndex:
        """The incrementally-maintained adjacency index — see
        :meth:`GraphView.adjacency`."""
        return self._view.adjacency()

    def csr_view(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Compact CSR adjacency: ``(indptr, neighbors, edge_ids, timestamps)``.

        ``indptr`` has length ``num_nodes + 1``; node ``v``'s temporal
        neighbourhood is the slice ``[indptr[v], indptr[v + 1])`` of the three
        data arrays, in chronological order.  Derived from :meth:`adjacency`
        on every call (O(num_nodes + entries)) — for tests and offline use;
        batch neighbour queries read the index's segments directly.
        """
        return self._view.csr_view()

    # ------------------------------------------------------------------ #
    # Basic accessors
    # ------------------------------------------------------------------ #
    @property
    def num_events(self) -> int:
        return self._view.num_events

    @property
    def src(self) -> np.ndarray:
        return self._view.src

    @property
    def dst(self) -> np.ndarray:
        return self._view.dst

    @property
    def timestamps(self) -> np.ndarray:
        return self._view.timestamps

    @property
    def labels(self) -> np.ndarray:
        return self._view.labels

    @property
    def edge_features(self) -> np.ndarray:
        return self._view.edge_features

    def edge_features_for(self, edge_ids: np.ndarray) -> np.ndarray:
        """Edge feature rows for the given edge ids (no full-matrix copy).

        Ids of ``-1`` (padding from neighbour samplers) return zero rows.
        """
        return self._view.edge_features_for(edge_ids)

    def interaction(self, edge_id: int) -> Interaction:
        if not 0 <= edge_id < self.num_events:
            raise IndexError(f"edge id out of range: {edge_id}")
        return Interaction(
            src=int(self.src[edge_id]),
            dst=int(self.dst[edge_id]),
            timestamp=float(self.timestamps[edge_id]),
            edge_feature=self.edge_features[edge_id],
            edge_id=edge_id,
            label=float(self.labels[edge_id]),
        )

    def interactions(self, start: int = 0, stop: int | None = None):
        """Iterate events ``[start, stop)`` in chronological order."""
        stop = self.num_events if stop is None else stop
        for edge_id in range(start, stop):
            yield self.interaction(edge_id)

    def degree(self, node: int, before: float | None = None) -> int:
        """Number of events the node participated in (optionally before a time)."""
        return self._view.degree(node, before)

    def node_events(self, node: int, before: float | None = None,
                    strict: bool = True) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Return (neighbors, edge_ids, timestamps) for a node's history.

        If ``before`` is given, only events strictly earlier (``strict=True``)
        or earlier-or-equal (``strict=False``) are returned, in chronological
        order.  Ids outside ``[0, num_nodes)`` (e.g. the samplers' ``-1``
        padding sentinel) have no history and return empty arrays.
        """
        return self._view.node_events(node, before, strict)

    def active_nodes(self) -> np.ndarray:
        """Nodes that appear in at least one event."""
        return self._view.active_nodes()

    # ------------------------------------------------------------------ #
    # Slicing (zero-copy views sharing this graph's storage)
    # ------------------------------------------------------------------ #
    def slice_by_time(self, start_time: float, end_time: float) -> "TemporalGraph":
        """Events with ``start_time <= t < end_time`` as a zero-copy view."""
        return TemporalGraph._wrap_view(self._view.slice_time(start_time, end_time))

    def slice_by_index(self, start: int, stop: int) -> "TemporalGraph":
        """Events ``[start, stop)`` as a zero-copy view."""
        return TemporalGraph._wrap_view(self._view.slice_events(start, stop))

    def node_slice(self, nodes: np.ndarray) -> "TemporalGraph":
        """Events touching any of ``nodes`` (as src or dst), chronological."""
        return TemporalGraph._wrap_view(self._view.node_slice(nodes))

    def _subset(self, indices: np.ndarray) -> "TemporalGraph":
        return TemporalGraph._wrap_view(self._view.select(indices))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"TemporalGraph(num_nodes={self.num_nodes}, num_events={self.num_events}, "
                f"edge_feature_dim={self.edge_feature_dim})")
