"""Static graph views of a temporal graph.

The static baselines (GraphSAGE, GAT, GAE/VGAE, DeepWalk, Node2Vec) discard
timestamps and operate on the aggregated adjacency structure — exactly the
simplification Figure 1(b) of the paper criticises.  This module builds that
view from a :class:`~repro.storage.graph_view.GraphView`.
"""

from __future__ import annotations

import numpy as np

from ..storage.graph_view import GraphView

__all__ = ["StaticGraph"]


class StaticGraph:
    """An undirected, weighted static collapse of a temporal multigraph.

    Edge weight = number of temporal interactions between the two endpoints;
    edge feature = mean of the temporal edge features.
    """

    def __init__(self, num_nodes: int):
        self.num_nodes = num_nodes
        self._neighbors: dict[int, dict[int, int]] = {}
        self._edge_feature_sums: dict[tuple[int, int], np.ndarray] = {}
        self.edge_feature_dim = 0

    @classmethod
    def from_temporal(cls, graph: GraphView) -> "StaticGraph":
        static = cls(graph.num_nodes)
        static.edge_feature_dim = graph.edge_feature_dim
        src, dst = graph.src, graph.dst
        features = graph.edge_features
        for index in range(graph.num_events):
            static._add_edge(int(src[index]), int(dst[index]), features[index])
        return static

    def _add_edge(self, u: int, v: int, feature: np.ndarray) -> None:
        self._neighbors.setdefault(u, {})[v] = self._neighbors.get(u, {}).get(v, 0) + 1
        self._neighbors.setdefault(v, {})[u] = self._neighbors.get(v, {}).get(u, 0) + 1
        key = (min(u, v), max(u, v))
        if key in self._edge_feature_sums:
            self._edge_feature_sums[key] = self._edge_feature_sums[key] + feature
        else:
            self._edge_feature_sums[key] = np.array(feature, copy=True)

    # ------------------------------------------------------------------ #
    def neighbors(self, node: int) -> np.ndarray:
        """Distinct neighbours of ``node``."""
        return np.asarray(sorted(self._neighbors.get(node, {})), dtype=np.int64)

    def degree(self, node: int) -> int:
        return len(self._neighbors.get(node, {}))

    def edge_weight(self, u: int, v: int) -> int:
        """Number of temporal interactions collapsed into edge (u, v)."""
        return self._neighbors.get(u, {}).get(v, 0)

    @property
    def num_edges(self) -> int:
        """Number of distinct undirected edges."""
        return len(self._edge_feature_sums)

    def edges(self) -> np.ndarray:
        """Array of distinct undirected edges, shape (num_edges, 2)."""
        if not self._edge_feature_sums:
            return np.zeros((0, 2), dtype=np.int64)
        return np.asarray(sorted(self._edge_feature_sums), dtype=np.int64)

    def mean_edge_feature(self, u: int, v: int) -> np.ndarray:
        key = (min(u, v), max(u, v))
        count = self.edge_weight(u, v)
        if count == 0:
            return np.zeros(self.edge_feature_dim)
        return self._edge_feature_sums[key] / count

    def adjacency_matrix(self, weighted: bool = False) -> np.ndarray:
        """Dense adjacency matrix (only sensible for the small public-style graphs)."""
        matrix = np.zeros((self.num_nodes, self.num_nodes))
        for node, nbrs in self._neighbors.items():
            for other, weight in nbrs.items():
                matrix[node, other] = weight if weighted else 1.0
        return matrix

    def normalized_adjacency(self, add_self_loops: bool = True) -> np.ndarray:
        """Symmetrically normalised adjacency D^-1/2 (A + I) D^-1/2 (GCN propagation)."""
        adjacency = self.adjacency_matrix()
        if add_self_loops:
            adjacency = adjacency + np.eye(self.num_nodes)
        degrees = adjacency.sum(axis=1)
        inv_sqrt = np.where(degrees > 0, 1.0 / np.sqrt(degrees), 0.0)
        return adjacency * inv_sqrt[:, None] * inv_sqrt[None, :]

    def sample_neighbors(self, node: int, count: int,
                         rng: np.random.Generator) -> np.ndarray:
        """Sample ``count`` neighbours with replacement (GraphSAGE-style)."""
        nbrs = self.neighbors(node)
        if len(nbrs) == 0:
            return np.full(count, node, dtype=np.int64)
        return rng.choice(nbrs, size=count, replace=True)
