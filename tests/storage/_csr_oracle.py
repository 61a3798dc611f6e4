"""From-scratch oracle for the temporal adjacency index.

:class:`MergeCsrIndex` is the index ``repro.storage.graph_view.CsrIndex``
used to be: every fold rewrites the whole compact CSR.  It left ``src/``
because its fold cost grows with the stream, and stays here as ground truth
(the ``repro.analytics.recompute`` idiom): however a stream is chunked,
masked or selected, ``CsrIndex.view()`` must equal one one-shot fold of this
class **bit for bit** — same entries, same tie order, same dtypes.
"""

from __future__ import annotations

import numpy as np


class MergeCsrIndex:
    """The merge-into-fresh-arrays CSR the segment index replaced.

    Holds ``(indptr, neighbors, edge_ids, times)`` grouped by node, each
    node's segment in chronological (= edge-id) order.  :meth:`extend` folds
    a block with one stable counting sort plus two scatter copies of
    everything built so far — O(built + new) per fold.
    """

    def __init__(self, num_nodes: int, node_mask: np.ndarray | None = None):
        self.num_nodes = num_nodes
        self._node_mask = None if node_mask is None \
            else np.asarray(node_mask, dtype=bool)
        if self._node_mask is not None and len(self._node_mask) != num_nodes:
            raise ValueError("node_mask must have num_nodes entries")
        self._indptr = np.zeros(num_nodes + 1, dtype=np.int64)
        self._nodes = np.empty(0, dtype=np.int64)
        self._neighbors = np.empty(0, dtype=np.int64)
        self._edge_ids = np.empty(0, dtype=np.int64)
        self._times = np.empty(0, dtype=np.float64)

    @property
    def num_entries(self) -> int:
        return len(self._nodes)

    def view(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(indptr, neighbors, edge_ids, timestamps)``; treat as read-only."""
        return self._indptr, self._neighbors, self._edge_ids, self._times

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
        if self._node_mask is not None:
            keep = self._node_mask[entry_nodes]
            entry_nodes = entry_nodes[keep]
            entry_neighbors = entry_neighbors[keep]
            entry_edges = entry_edges[keep]
            entry_times = entry_times[keep]
            if len(entry_nodes) == 0:
                return

        built = len(self._nodes)
        order = np.argsort(entry_nodes, kind="stable")
        sorted_nodes = entry_nodes[order]
        new_counts = np.bincount(sorted_nodes, minlength=self.num_nodes)
        new_indptr = self._indptr.copy()
        new_indptr[1:] += np.cumsum(new_counts)

        total = built + len(sorted_nodes)
        merged_nodes = np.empty(total, dtype=np.int64)
        merged_neighbors = np.empty(total, dtype=np.int64)
        merged_edge_ids = np.empty(total, dtype=np.int64)
        merged_times = np.empty(total, dtype=np.float64)
        # Old entries keep their within-segment position; the whole segment
        # shifts by the number of new entries inserted before it.
        old_positions = np.arange(built) \
            + (new_indptr[self._nodes] - self._indptr[self._nodes])
        merged_nodes[old_positions] = self._nodes
        merged_neighbors[old_positions] = self._neighbors
        merged_edge_ids[old_positions] = self._edge_ids
        merged_times[old_positions] = self._times
        # New entries land at their segment's tail, in block (= time) order:
        # new segment start + old segment length + rank within the node's
        # slice of the sorted new block.
        group_starts = np.concatenate(([0], np.cumsum(new_counts)[:-1]))
        segment_rank = np.arange(len(sorted_nodes)) - group_starts[sorted_nodes]
        old_degrees = np.diff(self._indptr)
        new_positions = new_indptr[sorted_nodes] + old_degrees[sorted_nodes] \
            + segment_rank
        merged_nodes[new_positions] = sorted_nodes
        merged_neighbors[new_positions] = entry_neighbors[order]
        merged_edge_ids[new_positions] = entry_edges[order]
        merged_times[new_positions] = entry_times[order]

        self._indptr = new_indptr
        self._nodes = merged_nodes
        self._neighbors = merged_neighbors
        self._edge_ids = merged_edge_ids
        self._times = merged_times


def oracle_csr(num_nodes: int, src, dst, timestamps, node_mask=None):
    """``(indptr, neighbors, edge_ids, times)`` of the stream in one fold."""
    index = MergeCsrIndex(num_nodes, node_mask=node_mask)
    index.extend(np.asarray(src), np.asarray(dst), np.asarray(timestamps),
                 first_edge_id=0)
    return index.view()
