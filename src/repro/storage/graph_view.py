"""Zero-copy graph views over a shared :class:`EventStore`.

This is the access half of the storage/view split: a
:class:`GraphView` is a lightweight *slice tracker* (the openDG
``DGraph``/``DGSliceTracker`` idiom) — it owns no event data, only the
half-open window ``[start, stop)`` of a shared
:class:`~repro.storage.event_store.EventStore` it exposes, so slicing is
O(1) and the column accessors are NumPy views into the store's buffers
(``np.shares_memory`` holds; pinned by ``tests/storage/``).

The temporal adjacency index (:class:`CsrIndex`) is maintained
*incrementally*, with update time independent of how much is already
indexed (the point of "Answering FO+MOD queries under updates"): every node
owns a contiguous, chronological segment with power-of-two slack inside
growable arenas, so folding a batch sorts and writes only the batch's own
entries and moves only the segments that outgrew their slack — amortised
O(new entries), whatever the stream length.

Three view flavours share one class:

* **live view** (``stop=None``) — tracks the store's growth; an owned graph
  (``GraphView(EventStore(n, d))``, appended to through ``view.store``) is
  one.
* **range view** (``[start, stop)``) — a frozen chronological window, as
  returned by :meth:`GraphView.slice_time` / :meth:`GraphView.slice_events`.
  A range view starting at 0 can follow the writer with
  :meth:`GraphView.extend_to` — the serving workers' read path.
* **selection view** — an explicit sorted id subset
  (:meth:`GraphView.node_slice` / :meth:`GraphView.select`); columns are
  gathered copies, everything else behaves identically.

Edge ids exposed by a view are *view-local* (0-based within the view), which
keeps samplers and batching oblivious to where the window sits in the store;
for any view starting at event 0 they coincide with the store's global ids.
"""

from __future__ import annotations

import numpy as np

from .event_store import _grow

__all__ = ["CsrIndex", "GraphView"]


def _capacity(lengths: np.ndarray) -> np.ndarray:
    """Slots reserved for segments of ``lengths`` entries.

    The next power of two (0 for an empty segment): capacity is a function
    of length alone, so it is never stored.
    """
    # frexp's exponent of len - 1 is its bit length (exact below 2**53).
    _, bits = np.frexp(lengths - 1)
    return np.where(lengths > 0, np.int64(1) << bits.astype(np.int64), 0)


def _ragged_range(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """``concatenate([starts[i] + arange(lengths[i]) for i in ...])``."""
    ends = np.cumsum(lengths)
    total = int(ends[-1]) if len(ends) else 0
    return np.arange(total) + np.repeat(starts - (ends - lengths), lengths)


class CsrIndex:
    """Incrementally-maintained temporal adjacency with per-node slack.

    Node ``v``'s incidence entries are the slots
    ``[start[v], start[v] + len[v])`` of three parallel arenas (``neighbors``
    / ``edge_ids`` / ``times``), in chronological (= edge-id) order.  Each
    segment sits in a block of ``next_power_of_two(len[v])`` slots, so most
    appends land in slack the segment already owns.

    :meth:`extend` folds a chronological block of events with one stable
    argsort of the block's own entries, one ragged copy that moves only the
    segments that outgrew their block (to a block twice as large at the
    arena's tail) and one scatter write per arena — amortised O(new entries),
    independent of how much is already indexed.  Blocks abandoned by moves
    are reclaimed by repacking the live blocks in place once they outnumber
    the live entries, which keeps ``touched_slots < 3 * num_entries``
    (segments < 2x, abandoned blocks <= 1x) at amortised O(1) per entry.
    Growth replaces one arena at a time, so neither path ever holds two
    copies of all three arenas.

    Readers address the arenas through :meth:`segments`; :meth:`view` derives
    the compact ``(indptr, ...)`` CSR for tests and offline use.
    """

    def __init__(self, num_nodes: int):
        self.num_nodes = num_nodes
        self._start = np.zeros(num_nodes, dtype=np.int64)
        self._len = np.zeros(num_nodes, dtype=np.int64)
        self._arenas = [np.empty(0, dtype=np.int64),    # neighbors
                        np.empty(0, dtype=np.int64),    # edge ids
                        np.empty(0, dtype=np.float64)]  # times
        self._tail = 0  # arena slots handed out so far
        self._dead = 0  # of those, slots in blocks abandoned by moves
        self._live = 0  # entries indexed

    @property
    def num_entries(self) -> int:
        return self._live

    @property
    def touched_slots(self) -> int:
        """Arena slots ever handed out: entries + slack + abandoned blocks."""
        return self._tail

    @property
    def neighbors(self) -> np.ndarray:
        return self._arenas[0]

    @property
    def edge_ids(self) -> np.ndarray:
        return self._arenas[1]

    @property
    def times(self) -> np.ndarray:
        return self._arenas[2]

    @property
    def degrees(self) -> np.ndarray:
        """Entries per node; treat as read-only."""
        return self._len

    def segments(self, nodes) -> tuple[np.ndarray, np.ndarray]:
        """Arena bounds ``(lo, hi)`` of the chronological segment of each of
        ``nodes`` (ids in ``[0, num_nodes)``); valid until the next
        :meth:`extend`."""
        lo = self._start[nodes]
        return lo, lo + self._len[nodes]

    def view(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Compact CSR ``(indptr, neighbors, edge_ids, timestamps)``.

        A derived O(num_nodes + num_entries) copy, for tests and offline use;
        queries go through :meth:`segments`.
        """
        indptr = np.zeros(self.num_nodes + 1, dtype=np.int64)
        np.cumsum(self._len, out=indptr[1:])
        slots = _ragged_range(self._start, self._len)
        return (indptr, *(arena[slots] for arena in self._arenas))

    def extend(self, src: np.ndarray, dst: np.ndarray, timestamps: np.ndarray,
               first_edge_id: int) -> None:
        """Fold a chronological event block into the index.

        Events get ids ``first_edge_id + arange(len(src))``; each produces
        two incidence entries (src→dst and dst→src, interleaved per event —
        the order neighbour queries rely on for ties).
        """
        block = len(src)
        if block == 0:
            return
        entry_nodes = np.empty(2 * block, dtype=np.int64)
        entry_nodes[0::2] = src
        entry_nodes[1::2] = dst
        entry_neighbors = np.empty(2 * block, dtype=np.int64)
        entry_neighbors[0::2] = dst
        entry_neighbors[1::2] = src
        entry_edges = np.repeat(
            np.arange(first_edge_id, first_edge_id + block, dtype=np.int64), 2)
        entry_times = np.repeat(np.asarray(timestamps, dtype=np.float64), 2)

        # Group the block's entries by node; the stable sort keeps each
        # node's run in block (= time) order.
        order = np.argsort(entry_nodes, kind="stable")
        sorted_nodes = entry_nodes[order]
        runs = np.concatenate((
            [0], np.flatnonzero(sorted_nodes[1:] != sorted_nodes[:-1]) + 1,
            [len(sorted_nodes)]))
        nodes = sorted_nodes[runs[:-1]]
        counts = np.diff(runs)
        old_len = self._len[nodes]
        new_len = old_len + counts

        capacity = _capacity(new_len)
        old_capacity = _capacity(old_len)
        outgrown = capacity > old_capacity
        if outgrown.any():
            needed = self._tail + int(capacity[outgrown].sum())
            # One arena at a time: each old arena is freed before the next
            # one is copied.
            for i in range(len(self._arenas)):
                self._arenas[i] = _grow(self._arenas[i], needed)
            self._relocate(nodes[outgrown], capacity[outgrown])
            self._dead += int(old_capacity[outgrown].sum())

        # New entries land at their segment's tail, in block order.
        slots = _ragged_range(self._start[nodes] + old_len, counts)
        for arena, entries in zip(self._arenas, (entry_neighbors, entry_edges,
                                                 entry_times)):
            arena[slots] = entries[order]
        self._len[nodes] = new_len
        self._live += len(order)
        if self._dead > self._live:
            self._compact()

    def _relocate(self, nodes: np.ndarray, capacity: np.ndarray) -> None:
        """Move ``nodes``' segments into consecutive blocks of ``capacity``
        slots starting at the arenas' tail.

        All of ``nodes``' entries are gathered before any is written, so the
        new blocks may overlap ``nodes``' old blocks (as when compacting),
        though never another live segment.
        """
        lengths = self._len[nodes]
        start = self._tail + np.cumsum(capacity) - capacity
        old_slots = _ragged_range(self._start[nodes], lengths)
        new_slots = _ragged_range(start, lengths)
        for arena in self._arenas:
            arena[new_slots] = arena[old_slots]
        self._start[nodes] = start
        self._tail += int(capacity.sum())

    def _compact(self) -> None:
        """Repack every live block from the arenas' front, in place,
        dropping the blocks abandoned by moves."""
        nodes = np.flatnonzero(self._len)
        self._tail = self._dead = 0
        self._relocate(nodes, _capacity(self._len[nodes]))

    def memory_footprint_bytes(self) -> int:
        """Bytes of the handed-out arena slots plus the per-node arrays.

        Arena capacity past the tail is not counted: untouched it costs
        address space, not memory, and slots a compaction freed are reused
        by the next folds before the arenas grow again."""
        slot_bytes = sum(arena.itemsize for arena in self._arenas)
        return self._tail * slot_bytes + self._start.nbytes + self._len.nbytes


class GraphView:
    """A zero-copy window over a shared :class:`EventStore`.

    Supports the full temporal-graph query API the samplers and batching
    need (``adjacency`` / ``node_events`` / ``degree`` / ``active_nodes`` /
    ``edge_features_for``) plus O(1) re-slicing (:meth:`slice_time`,
    :meth:`slice_events`, :meth:`node_slice`).  Views are read-only; use
    the store (``view.store.append_batch``) to grow a live view, or build a
    fresh :class:`EventStore` from a view's columns for an appendable copy.
    """

    def __init__(self, store, start: int = 0, stop: int | None = None):
        if start < 0:
            raise ValueError("start must be non-negative")
        if stop is not None and stop < start:
            raise ValueError("stop must be >= start")
        self.store = store
        self._start = start
        self._stop = stop
        self._selection: np.ndarray | None = None
        self._index: CsrIndex | None = None
        self._indexed = 0  # view-local event count folded into _index

    @classmethod
    def _from_selection(cls, store, selection: np.ndarray) -> "GraphView":
        view = cls(store, 0, 0)
        view._selection = np.asarray(selection, dtype=np.int64)
        return view

    # ------------------------------------------------------------------ #
    # Geometry
    # ------------------------------------------------------------------ #
    @property
    def num_nodes(self) -> int:
        return self.store.num_nodes

    @property
    def edge_feature_dim(self) -> int:
        return self.store.edge_feature_dim

    @property
    def start(self) -> int:
        return self._start

    @property
    def stop(self) -> int:
        return self.store.num_events if self._stop is None else self._stop

    @property
    def is_live(self) -> bool:
        """Does this view track the store's growth automatically?"""
        return self._stop is None and self._selection is None

    @property
    def num_events(self) -> int:
        if self._selection is not None:
            return len(self._selection)
        return self.stop - self._start

    def __len__(self) -> int:
        return self.num_events

    def extend_to(self, num_events: int) -> "GraphView":
        """Advance a range view's upper bound to ``num_events`` store events.

        The serving workers' read path: after the writer publishes more
        events, ``extend_to`` makes exactly the prefix a batch is allowed to
        see visible (and the next :meth:`adjacency` folds only the new rows).
        """
        if self._selection is not None:
            raise RuntimeError("selection views cannot be extended")
        if self._stop is None:
            return self  # live views track the store already
        if num_events < self._stop:
            raise ValueError(
                f"cannot shrink a view: {num_events} < {self._stop}")
        self.store.ensure_visible(num_events)
        self._stop = num_events
        return self

    # ------------------------------------------------------------------ #
    # Columns (zero-copy for range views, gathered for selections)
    # ------------------------------------------------------------------ #
    def _column(self, name: str) -> np.ndarray:
        column = getattr(self.store, name)
        if self._selection is not None:
            return column[self._selection]
        return column[self._start:self.stop]

    @property
    def src(self) -> np.ndarray:
        return self._column("src")

    @property
    def dst(self) -> np.ndarray:
        return self._column("dst")

    @property
    def timestamps(self) -> np.ndarray:
        return self._column("timestamps")

    @property
    def labels(self) -> np.ndarray:
        return self._column("labels")

    @property
    def edge_features(self) -> np.ndarray:
        return self._column("edge_features")

    @property
    def last_timestamp(self) -> float:
        times = self.timestamps
        return float(times[-1]) if len(times) else -np.inf

    def edge_features_for(self, edge_ids: np.ndarray) -> np.ndarray:
        """Edge feature rows for view-local edge ids (-1 padding -> zeros)."""
        edge_ids = np.asarray(edge_ids, dtype=np.int64).reshape(-1)
        valid = (edge_ids >= 0) & (edge_ids < self.num_events)
        out = np.zeros((len(edge_ids), self.edge_feature_dim))
        out[valid] = self.edge_features[edge_ids[valid]]
        return out

    # ------------------------------------------------------------------ #
    # CSR adjacency + temporal queries
    # ------------------------------------------------------------------ #
    def adjacency(self) -> CsrIndex:
        """The view's temporal adjacency index, folded up to its last event.

        Maintained incrementally: only events that became visible since the
        last call are folded in, at a cost independent of the view's length.
        Edge ids are view-local.  Read through
        :meth:`CsrIndex.segments`; bounds hold until the view next grows.
        """
        target = self.num_events
        if self._index is None:
            self._index = CsrIndex(self.num_nodes)
        if self._indexed < target:
            with self.store.telemetry.span("view.fold",
                                           arg=target - self._indexed):
                if self._selection is not None:
                    rows = self._selection[self._indexed:target]
                else:
                    rows = slice(self._start + self._indexed,
                                 self._start + target)
                self._index.extend(
                    self.store.src[rows], self.store.dst[rows],
                    self.store.timestamps[rows], first_edge_id=self._indexed)
            self._indexed = target
        return self._index

    def csr_view(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Compact CSR adjacency ``(indptr, neighbors, edge_ids, timestamps)``.

        A derived O(num_nodes + entries) read-out of :meth:`adjacency` for
        tests and offline use — no query path goes through it.
        """
        return self.adjacency().view()

    def degree(self, node: int, before: float | None = None) -> int:
        """Number of view events the node participates in (optionally before t)."""
        if not 0 <= node < self.num_nodes:
            return 0
        index = self.adjacency()
        start, stop = map(int, index.segments(node))
        if before is None:
            return stop - start
        return int(np.searchsorted(index.times[start:stop], before, side="left"))

    def node_events(self, node: int, before: float | None = None,
                    strict: bool = True) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(neighbors, edge_ids, timestamps)`` of a node's view history.

        With ``before``, only strictly-earlier (``strict=True``) or
        earlier-or-equal events; ids outside ``[0, num_nodes)`` (sampler
        padding) return empty arrays.
        """
        if not 0 <= node < self.num_nodes:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty.copy(), np.empty(0, dtype=np.float64)
        index = self.adjacency()
        start, stop = map(int, index.segments(node))
        if before is not None:
            side = "left" if strict else "right"
            stop = start + int(np.searchsorted(index.times[start:stop], before,
                                               side=side))
        return (index.neighbors[start:stop], index.edge_ids[start:stop],
                index.times[start:stop])

    def active_nodes(self) -> np.ndarray:
        """Nodes with at least one view event."""
        return np.flatnonzero(self.adjacency().degrees)

    # ------------------------------------------------------------------ #
    # Re-slicing (all O(1) or O(result); columns stay shared)
    # ------------------------------------------------------------------ #
    def slice_time(self, start_time: float, end_time: float) -> "GraphView":
        """Events with ``start_time <= t < end_time`` as a zero-copy view.

        Timestamps are non-decreasing (append contract), so the matching
        events form a contiguous range — two binary searches, no mask.
        """
        times = self.timestamps
        lo = int(np.searchsorted(times, start_time, side="left"))
        hi = int(np.searchsorted(times, end_time, side="left"))
        if self._selection is not None:
            return GraphView._from_selection(self.store, self._selection[lo:hi])
        return GraphView(self.store, self._start + lo, self._start + hi)

    def slice_events(self, start: int, stop: int) -> "GraphView":
        """Events ``[start, stop)`` (view-local indices) as a zero-copy view."""
        start = max(0, min(start, self.num_events))
        stop = max(start, min(stop, self.num_events))
        if self._selection is not None:
            return GraphView._from_selection(self.store,
                                             self._selection[start:stop])
        return GraphView(self.store, self._start + start, self._start + stop)

    def select(self, indices: np.ndarray) -> "GraphView":
        """An explicit event subset (sorted view-local indices)."""
        indices = np.asarray(indices, dtype=np.int64)
        if len(indices) and (indices.min() < 0 or indices.max() >= self.num_events):
            raise IndexError("event index out of range")
        if np.any(np.diff(indices) < 0):
            raise ValueError("selection indices must be sorted (chronological)")
        if self._selection is not None:
            return GraphView._from_selection(self.store, self._selection[indices])
        return GraphView._from_selection(self.store, self._start + indices)

    def node_slice(self, nodes: np.ndarray) -> "GraphView":
        """Events touching any of ``nodes`` (as src or dst), chronological."""
        nodes = np.asarray(nodes, dtype=np.int64).reshape(-1)
        mask = np.isin(self.src, nodes) | np.isin(self.dst, nodes)
        return self.select(np.where(mask)[0])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        window = f"selection[{len(self._selection)}]" if self._selection is not None \
            else f"[{self._start}, {'live' if self._stop is None else self._stop})"
        return f"GraphView({window} of {self.store!r})"
