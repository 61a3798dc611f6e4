"""Per-node degree and arrival-velocity features, maintained per batch.

:class:`DegreeVelocity` keeps the cumulative in/out degree, the last time a
node was seen, its inter-arrival statistics (sum and count of deltas between
consecutive appearances) and the most recent inter-arrival delta — the raw
material of the "how fast is this account suddenly moving" burst features.

The fold is whole-batch array work: node occurrences are interleaved per
event (source endpoint, then destination — the order the paper's per-event
loop would visit them), grouped with one stable sort, and the per-occurrence
deltas are scattered with ``np.add.at``.  Because within a node's group the
occurrences stay in row order and ``np.add.at`` applies additions in index
order, folding a stream in any batch partition produces **bit-identical**
state to one batch recomputation over the whole stream — the oracle
equivalence ``tests/analytics/`` pins under hypothesis.

Cost per fold is O(batch log batch) for the sort plus O(batch) scatters —
independent of how many events the tracker has already absorbed.
"""

from __future__ import annotations

import numpy as np

__all__ = ["DegreeVelocity"]


class DegreeVelocity:
    """Incremental in/out degree, inter-arrival deltas and burst score."""

    def __init__(self, num_nodes: int):
        if num_nodes <= 0:
            raise ValueError("num_nodes must be positive")
        self.num_nodes = num_nodes
        self.out_degree = np.zeros(num_nodes, dtype=np.int64)
        self.in_degree = np.zeros(num_nodes, dtype=np.int64)
        self.last_time = np.full(num_nodes, -np.inf, dtype=np.float64)
        self.delta_sum = np.zeros(num_nodes, dtype=np.float64)
        self.delta_count = np.zeros(num_nodes, dtype=np.int64)
        self.last_delta = np.full(num_nodes, np.nan, dtype=np.float64)
        self.num_folded = 0

    # ------------------------------------------------------------------ #
    # Maintenance
    # ------------------------------------------------------------------ #
    def fold(self, src: np.ndarray, dst: np.ndarray, timestamps: np.ndarray,
             labels: np.ndarray | None = None, first_row: int = 0) -> None:
        """Fold one event block into the tracker, in row order.

        A node's inter-arrival gaps are taken between its consecutive
        appearances in row order, which is arrival order.  ``timestamps`` may
        be occurrence times that run backwards on a late stream (the
        registry's ``event_times``); a gap is then negative, and
        :meth:`burst_score` treats a negative last gap as undefined.
        """
        del labels, first_row  # uniform view interface; velocity needs neither
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        timestamps = np.asarray(timestamps, dtype=np.float64)
        if not len(src):
            return
        np.add.at(self.out_degree, src, 1)
        np.add.at(self.in_degree, dst, 1)

        # Occurrence stream: per event, src endpoint then dst endpoint;
        # occurrence ``i`` belongs to event ``i >> 1``.
        occ_nodes = np.empty(2 * len(src), dtype=np.int64)
        occ_nodes[0::2] = src
        occ_nodes[1::2] = dst
        order = np.argsort(occ_nodes, kind="stable")
        nodes = occ_nodes[order]
        times = timestamps[order >> 1]

        # Group edges: ``edges[i]`` is True where occurrence ``i`` starts a
        # node's group, ``edges[i + 1]`` where it ends one.
        edges = np.ones(len(nodes) + 1, dtype=bool)
        edges[1:-1] = nodes[1:] != nodes[:-1]
        first_of_group, last_of_group = edges[:-1], edges[1:]
        previous = np.empty_like(times)
        previous[1:] = times[:-1]
        previous[first_of_group] = self.last_time[nodes[first_of_group]]
        deltas = times - previous
        known = np.isfinite(previous)  # first-ever appearance has no delta

        known_nodes = nodes[known]
        np.add.at(self.delta_sum, known_nodes, deltas[known])
        np.add.at(self.delta_count, known_nodes, 1)

        self.last_time[nodes[last_of_group]] = times[last_of_group]
        closing = last_of_group & known
        self.last_delta[nodes[closing]] = deltas[closing]
        self.num_folded += len(src)

    # ------------------------------------------------------------------ #
    # Queries (pure functions of the state above)
    # ------------------------------------------------------------------ #
    def degree(self, nodes: np.ndarray) -> np.ndarray:
        """Total degree (in + out) per node."""
        nodes = np.asarray(nodes, dtype=np.int64)
        return self.out_degree[nodes] + self.in_degree[nodes]

    def mean_interarrival(self, nodes: np.ndarray) -> np.ndarray:
        """Mean gap between a node's consecutive appearances (0 if < 2)."""
        nodes = np.asarray(nodes, dtype=np.int64)
        counts = self.delta_count[nodes]
        sums = self.delta_sum[nodes]
        return np.divide(sums, counts, out=np.zeros_like(sums),
                         where=counts > 0)

    def burst_score(self, nodes: np.ndarray) -> np.ndarray:
        """How much faster than usual a node is arriving right now.

        ``mean_interarrival / last_interarrival`` — 1.0 means on-trend,
        above 1.0 means the latest gap was shorter than the node's average
        (a burst), below 1.0 a slowdown.  Nodes with fewer than two
        appearances score 0.  A zero last delta (same-timestamp events)
        saturates rather than dividing by zero: ``inf`` when the mean gap is
        positive, 1.0 when it is not.  A negative last delta (the latest
        arrival occurred before the one ahead of it, see :meth:`fold`) is
        undefined and scores 0.
        """
        nodes = np.asarray(nodes, dtype=np.int64)
        mean = self.mean_interarrival(nodes)
        last = self.last_delta[nodes]
        score = np.zeros(mean.shape, dtype=np.float64)
        np.divide(mean, last, out=score, where=last > 0)
        zero = last == 0
        if zero.any():
            score[zero] = np.where(mean[zero] > 0, np.inf, 1.0)
        return score

    def memory_footprint_bytes(self) -> int:
        return sum(a.nbytes for a in (self.out_degree, self.in_degree,
                                      self.last_time, self.delta_sum,
                                      self.delta_count, self.last_delta))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"DegreeVelocity(num_nodes={self.num_nodes}, "
                f"folded={self.num_folded})")
