"""Temporal neighbour sampling strategies.

The paper's propagator delivers mails to a sampled temporal neighbourhood
N^k_ij of the two interacting nodes (§3.5, "Temporal Neighbors Sampling").
APAN uses *most-recent* sampling; uniform and time-weighted sampling are
implemented as well because (a) the TGAT baseline uses uniform sampling and
(b) the ablation benchmark compares the strategies.

Two query shapes are supported:

* :meth:`TemporalNeighborSampler.sample` — one ``(node, time)`` pair, the
  per-event path used by the baselines and the propagation test oracle;
* :meth:`TemporalNeighborSampler.sample_many` — a whole frontier of
  ``(node, time)`` pairs at once, returning dense ``(N, num_neighbors)``
  arrays computed against the graph's adjacency index (per-node chronological
  segments) with a batched binary search.  This is the hot path of mail
  propagation.

Randomised strategies (uniform / time-weighted) support two RNG modes.  The
default *stateful* mode draws from one shared generator, so repeated calls
with the same arguments explore different samples.  The *stateless* mode
(``stateless=True``) derives an independent generator from
``(seed, node, time)`` for every query, which makes each sample a pure
function of its inputs — this is what lets the propagator and its
per-event test oracle produce bit-identical neighbourhoods regardless of the
order in which they issue the queries, and a serving worker sample exactly
like the scorer's propagator.
"""

from __future__ import annotations

import numpy as np

from ..storage.graph_view import GraphView

__all__ = [
    "NeighborSample",
    "NeighborBatch",
    "TemporalNeighborSampler",
    "MostRecentNeighborSampler",
    "UniformNeighborSampler",
    "TimeWeightedNeighborSampler",
    "make_sampler",
]


class NeighborSample:
    """Result of sampling one node's temporal neighbourhood.

    Attributes
    ----------
    neighbors, edge_ids, timestamps:
        Parallel arrays of length ``size`` (padded with ``-1`` / ``0.0``).
    mask:
        Boolean array; True where the slot holds a real neighbour.
    """

    __slots__ = ("neighbors", "edge_ids", "timestamps", "mask")

    def __init__(self, neighbors: np.ndarray, edge_ids: np.ndarray,
                 timestamps: np.ndarray, mask: np.ndarray):
        self.neighbors = neighbors
        self.edge_ids = edge_ids
        self.timestamps = timestamps
        self.mask = mask

    @property
    def num_valid(self) -> int:
        return int(self.mask.sum())

    @classmethod
    def empty(cls, size: int) -> "NeighborSample":
        return cls(
            neighbors=np.full(size, -1, dtype=np.int64),
            edge_ids=np.full(size, -1, dtype=np.int64),
            timestamps=np.zeros(size, dtype=np.float64),
            mask=np.zeros(size, dtype=bool),
        )


class NeighborBatch:
    """Dense result of sampling many ``(node, time)`` pairs at once.

    All four arrays have shape ``(num_queries, num_neighbors)``; row ``i`` is
    exactly what :meth:`TemporalNeighborSampler.sample` would return for query
    ``i`` (padded with ``-1`` / ``0.0`` where ``mask`` is False).
    """

    __slots__ = ("neighbors", "edge_ids", "timestamps", "mask")

    def __init__(self, neighbors: np.ndarray, edge_ids: np.ndarray,
                 timestamps: np.ndarray, mask: np.ndarray):
        self.neighbors = neighbors
        self.edge_ids = edge_ids
        self.timestamps = timestamps
        self.mask = mask

    def row(self, index: int) -> NeighborSample:
        """The ``index``-th query's result as a :class:`NeighborSample`."""
        return NeighborSample(
            neighbors=self.neighbors[index],
            edge_ids=self.edge_ids[index],
            timestamps=self.timestamps[index],
            mask=self.mask[index],
        )


def _segment_searchsorted(times: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                          targets: np.ndarray) -> np.ndarray:
    """Vectorized per-segment ``searchsorted(..., side='left')``.

    For each query ``i``, returns the insertion point of ``targets[i]`` in the
    sorted slice ``times[lo[i]:hi[i]]`` (as an absolute index).  One probe of
    each segment's last entry settles every query that lies after its whole
    segment — all of them when routing a batch against the strictly older
    store prefix; the rest run a simultaneous binary search, O(log
    max_degree) rounds of array ops instead of one Python-level bisect per
    query.
    """
    result = lo.copy()
    nonempty = np.flatnonzero(lo < hi)
    last = hi[nonempty] - 1
    after = times[last] < targets[nonempty]
    result[nonempty[after]] = hi[nonempty[after]]
    lanes = nonempty[~after]
    if len(lanes) == 0:
        return result
    # times[last] >= target on these lanes: the answer lies in [lo, last].
    lo, hi, targets = lo[lanes], last[~after], targets[lanes]
    active = lo < hi
    while np.any(active):
        mid = (lo + hi) // 2
        # Settled lanes have lo == hi == mid: probing them changes nothing.
        go_right = active & (times[mid] < targets)
        lo = np.where(go_right, mid + 1, lo)
        hi = np.where(active & ~go_right, mid, hi)
        active = lo < hi
    result[lanes] = lo
    return result


class TemporalNeighborSampler:
    """Base class: sample up to ``num_neighbors`` events of a node before ``t``."""

    def __init__(self, graph: GraphView, num_neighbors: int = 10,
                 seed: int | None = None, stateless: bool = False):
        if num_neighbors <= 0:
            raise ValueError("num_neighbors must be positive")
        self.graph = graph
        self.num_neighbors = num_neighbors
        self.stateless = stateless
        self._rng = np.random.default_rng(seed)
        # Root entropy for the stateless per-query generators.
        self._entropy = int(np.random.SeedSequence(seed).generate_state(1, np.uint64)[0])

    # ------------------------------------------------------------------ #
    def _query_rng(self, node: int, time: float) -> np.random.Generator:
        """Generator derived from ``(seed, node, time)`` — order-independent."""
        time_bits = int(np.float64(time).view(np.uint64))
        return np.random.default_rng([self._entropy, int(node), time_bits])

    def _selection_rng(self, node: int, time: float) -> np.random.Generator:
        return self._query_rng(node, time) if self.stateless else self._rng

    # ------------------------------------------------------------------ #
    def sample(self, node: int, time: float) -> NeighborSample:
        neighbors, edge_ids, timestamps = self.graph.node_events(node, before=time)
        if len(neighbors) == 0:
            return NeighborSample.empty(self.num_neighbors)
        selected = self._select(neighbors, edge_ids, timestamps,
                                self._selection_rng(node, time))
        return self._pad(*selected)

    def sample_batch(self, nodes: np.ndarray, times: np.ndarray) -> list[NeighborSample]:
        """Sample the neighbourhoods of several (node, time) pairs."""
        return [self.sample(int(node), float(time)) for node, time in zip(nodes, times)]

    def sample_many(self, nodes: np.ndarray, times: np.ndarray) -> NeighborBatch:
        """Sample all ``(nodes[i], times[i])`` neighbourhoods in one shot.

        Equivalent to stacking :meth:`sample` over the queries but computed
        with array ops against the graph's adjacency index: a batched binary search
        finds each query's "history before t" window, and the per-strategy
        :meth:`_select_positions_many` hook picks ``num_neighbors`` events
        from the windows that overflow.  In stateless mode the randomised
        strategies match :meth:`sample` bit-for-bit.
        """
        nodes = np.asarray(nodes, dtype=np.int64).reshape(-1)
        times = np.asarray(times, dtype=np.float64).reshape(-1)
        if len(nodes) != len(times):
            raise ValueError("nodes and times must align")
        count = len(nodes)
        size = self.num_neighbors
        out = NeighborBatch(
            neighbors=np.full((count, size), -1, dtype=np.int64),
            edge_ids=np.full((count, size), -1, dtype=np.int64),
            timestamps=np.zeros((count, size), dtype=np.float64),
            mask=np.zeros((count, size), dtype=bool),
        )
        if count == 0:
            return out
        index = self.graph.adjacency()
        # Ids outside the node range (padding) have no history, as in `sample`.
        known = (nodes >= 0) & (nodes < index.num_nodes)
        start, stop = index.segments(np.where(known, nodes, 0))
        stop = np.where(known, stop, start)
        cut = _segment_searchsorted(index.times, start, stop, times)
        window = cut - start

        slots = np.arange(size)
        # Windows that fit keep their chronological order (matching `sample`,
        # whose _select returns short histories untruncated).
        fits = window <= size
        flat_index = np.where(fits[:, None], start[:, None] + slots[None, :],
                              np.int64(0))
        mask = fits[:, None] & (slots[None, :] < window[:, None])
        overflow = np.where(~fits)[0]
        if len(overflow):
            over_index, over_mask = self._select_positions_many(
                overflow, nodes[overflow], times[overflow],
                start[overflow], cut[overflow], index.times)
            flat_index[overflow] = over_index
            mask[overflow] = over_mask

        if mask.any():
            safe = np.where(mask, flat_index, 0)
            out.neighbors[mask] = index.neighbors[safe][mask]
            out.edge_ids[mask] = index.edge_ids[safe][mask]
            out.timestamps[mask] = index.times[safe][mask]
        out.mask = mask
        return out

    def multi_hop(self, node: int, time: float, num_hops: int) -> list[NeighborSample]:
        """Breadth-first multi-hop expansion (hop h samples neighbours of hop h-1).

        Returns one :class:`NeighborSample` per hop whose arrays are the
        concatenation over all frontier nodes of that hop; used by the 2-layer
        TGAT/TGN baselines and by the k-hop mail propagator.
        """
        samples: list[NeighborSample] = []
        frontier = [(node, time)]
        for _ in range(num_hops):
            if not frontier:
                # Previous hop found nothing; remaining hops are empty.
                samples.append(NeighborSample.empty(self.num_neighbors))
                continue
            hop_neighbors, hop_edges, hop_times, hop_mask = [], [], [], []
            next_frontier: list[tuple[int, float]] = []
            for frontier_node, frontier_time in frontier:
                sample = self.sample(frontier_node, frontier_time)
                hop_neighbors.append(sample.neighbors)
                hop_edges.append(sample.edge_ids)
                hop_times.append(sample.timestamps)
                hop_mask.append(sample.mask)
                for neighbor, timestamp, valid in zip(sample.neighbors, sample.timestamps, sample.mask):
                    if valid:
                        next_frontier.append((int(neighbor), float(timestamp)))
            samples.append(NeighborSample(
                neighbors=np.concatenate(hop_neighbors),
                edge_ids=np.concatenate(hop_edges),
                timestamps=np.concatenate(hop_times),
                mask=np.concatenate(hop_mask),
            ))
            if not next_frontier:
                # Remaining hops are empty; keep shapes consistent.
                frontier = []
                continue
            frontier = next_frontier
        return samples

    # ------------------------------------------------------------------ #
    def _select(self, neighbors: np.ndarray, edge_ids: np.ndarray,
                timestamps: np.ndarray,
                rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        raise NotImplementedError

    def _select_positions_many(self, rows: np.ndarray, nodes: np.ndarray,
                               times: np.ndarray, start: np.ndarray,
                               cut: np.ndarray, csr_times: np.ndarray
                               ) -> tuple[np.ndarray, np.ndarray]:
        """Pick ``num_neighbors`` adjacency-arena slots for overflowing windows.

        Called only for queries whose history window ``[start, cut)`` exceeds
        ``num_neighbors``.  Returns ``(flat_index, mask)`` of shape
        ``(len(rows), num_neighbors)``; each row must list the same events, in
        the same slot order, as :meth:`_select` would produce.
        """
        raise NotImplementedError

    def _pad(self, neighbors: np.ndarray, edge_ids: np.ndarray,
             timestamps: np.ndarray) -> NeighborSample:
        size = self.num_neighbors
        out = NeighborSample.empty(size)
        count = min(size, len(neighbors))
        out.neighbors[:count] = neighbors[:count]
        out.edge_ids[:count] = edge_ids[:count]
        out.timestamps[:count] = timestamps[:count]
        out.mask[:count] = True
        return out


class MostRecentNeighborSampler(TemporalNeighborSampler):
    """Keep the ``num_neighbors`` most recent events (paper default for APAN/TGN)."""

    def _select(self, neighbors, edge_ids, timestamps, rng):
        if len(neighbors) <= self.num_neighbors:
            return neighbors, edge_ids, timestamps
        # Events are stored chronologically; the most recent are at the end.
        # Return them most-recent-first so truncation keeps the newest.
        keep = slice(len(neighbors) - self.num_neighbors, len(neighbors))
        return neighbors[keep][::-1], edge_ids[keep][::-1], timestamps[keep][::-1]

    def _select_positions_many(self, rows, nodes, times, start, cut, csr_times):
        slots = np.arange(self.num_neighbors)
        # Most-recent-first: cut-1, cut-2, ... (all valid: window > size here).
        flat_index = cut[:, None] - 1 - slots[None, :]
        mask = np.ones_like(flat_index, dtype=bool)
        return flat_index, mask


class UniformNeighborSampler(TemporalNeighborSampler):
    """Sample uniformly at random from the node's history (TGAT default)."""

    def _select(self, neighbors, edge_ids, timestamps, rng):
        if len(neighbors) <= self.num_neighbors:
            return neighbors, edge_ids, timestamps
        chosen = rng.choice(len(neighbors), size=self.num_neighbors, replace=False)
        chosen.sort()
        return neighbors[chosen], edge_ids[chosen], timestamps[chosen]

    def _select_positions_many(self, rows, nodes, times, start, cut, csr_times):
        size = self.num_neighbors
        flat_index = np.zeros((len(rows), size), dtype=np.int64)
        mask = np.ones((len(rows), size), dtype=bool)
        # Per-query draws stay on a loop: each row needs its own generator
        # (stateless) or its own sequential draw (stateful) to match `sample`.
        for i in range(len(rows)):
            rng = self._selection_rng(int(nodes[i]), float(times[i]))
            chosen = rng.choice(int(cut[i] - start[i]), size=size, replace=False)
            chosen.sort()
            flat_index[i] = start[i] + chosen
        return flat_index, mask


class TimeWeightedNeighborSampler(TemporalNeighborSampler):
    """Sample with probability proportional to recency (exponential decay)."""

    def __init__(self, graph: GraphView, num_neighbors: int = 10,
                 seed: int | None = None, stateless: bool = False,
                 decay: float = 1e-5):
        super().__init__(graph, num_neighbors, seed, stateless)
        if decay <= 0:
            raise ValueError("decay must be positive")
        self.decay = decay

    def _weights(self, timestamps: np.ndarray) -> np.ndarray:
        latest = timestamps.max()
        weights = np.exp(-self.decay * (latest - timestamps))
        total = weights.sum()
        if total <= 0 or not np.isfinite(total):
            return np.full(len(weights), 1.0 / len(weights))
        return weights / total

    def _select(self, neighbors, edge_ids, timestamps, rng):
        if len(neighbors) <= self.num_neighbors:
            return neighbors, edge_ids, timestamps
        probabilities = self._weights(timestamps)
        chosen = rng.choice(len(neighbors), size=self.num_neighbors,
                            replace=False, p=probabilities)
        chosen.sort()
        return neighbors[chosen], edge_ids[chosen], timestamps[chosen]

    def _select_positions_many(self, rows, nodes, times, start, cut, csr_times):
        size = self.num_neighbors
        flat_index = np.zeros((len(rows), size), dtype=np.int64)
        mask = np.ones((len(rows), size), dtype=bool)
        for i in range(len(rows)):
            rng = self._selection_rng(int(nodes[i]), float(times[i]))
            segment = csr_times[start[i]:cut[i]]
            chosen = rng.choice(len(segment), size=size, replace=False,
                                p=self._weights(segment))
            chosen.sort()
            flat_index[i] = start[i] + chosen
        return flat_index, mask


_SAMPLERS = {
    "recent": MostRecentNeighborSampler,
    "uniform": UniformNeighborSampler,
    "time_weighted": TimeWeightedNeighborSampler,
}


def make_sampler(strategy: str, graph: GraphView, num_neighbors: int = 10,
                 seed: int | None = None,
                 stateless: bool = False) -> TemporalNeighborSampler:
    """Factory for sampler strategies ('recent', 'uniform', 'time_weighted')."""
    try:
        sampler_cls = _SAMPLERS[strategy]
    except KeyError as error:
        raise ValueError(
            f"unknown sampling strategy {strategy!r}; expected one of {sorted(_SAMPLERS)}"
        ) from error
    return sampler_cls(graph, num_neighbors=num_neighbors, seed=seed,
                       stateless=stateless)
