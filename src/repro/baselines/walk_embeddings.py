"""Random-walk embedding baselines: DeepWalk, Node2Vec and CTDNE.

* **DeepWalk** — uniform random walks on the static collapse of the training
  window, followed by skip-gram with negative sampling.
* **Node2Vec** — second-order biased walks controlled by the return parameter
  ``p`` and the in-out parameter ``q``.
* **CTDNE** — *temporal* random walks: each step must use an edge whose
  timestamp is not earlier than the previous step's, so walks respect time
  (the property Figure 1b shows static walks violate).

All three produce a single embedding per node, trained only on the training
window, and are evaluated with the shared static protocol.
"""

from __future__ import annotations

import numpy as np

from ..datasets.base import DatasetSplit, TemporalDataset
from ..graph.static_graph import StaticGraph
from ..storage.graph_view import GraphView
from .skipgram import train_skipgram
from .static_base import StaticBaseline

__all__ = ["DeepWalk", "Node2Vec", "CTDNE"]


def _training_graphs(dataset: TemporalDataset, split: DatasetSplit):
    """Static and temporal views of the training window only."""
    temporal = dataset.to_temporal_graph().slice_events(0, split.train_end)
    return StaticGraph.from_temporal(temporal), temporal


class DeepWalk(StaticBaseline):
    """Uniform random walks + skip-gram (Perozzi et al., 2014)."""

    name = "deepwalk"

    def __init__(self, embedding_dim: int = 64, walk_length: int = 20,
                 walks_per_node: int = 5, window: int = 5, epochs: int = 2,
                 seed: int = 0):
        self.embedding_dim = embedding_dim
        self.walk_length = walk_length
        self.walks_per_node = walks_per_node
        self.window = window
        self.epochs = epochs
        self.seed = seed
        self._embeddings: np.ndarray | None = None

    def _generate_walks(self, graph: StaticGraph, rng: np.random.Generator) -> list[list[int]]:
        walks = []
        nodes = [node for node in range(graph.num_nodes) if graph.degree(node) > 0]
        for _ in range(self.walks_per_node):
            rng.shuffle(nodes)
            for start in nodes:
                walk = [start]
                current = start
                for _ in range(self.walk_length - 1):
                    neighbors = graph.neighbors(current)
                    if len(neighbors) == 0:
                        break
                    current = int(rng.choice(neighbors))
                    walk.append(current)
                walks.append(walk)
        return walks

    def fit(self, dataset: TemporalDataset, split: DatasetSplit) -> "DeepWalk":
        static, _ = _training_graphs(dataset, split)
        rng = np.random.default_rng(self.seed)
        walks = self._generate_walks(static, rng)
        self._embeddings = train_skipgram(
            walks, dataset.num_nodes, embedding_dim=self.embedding_dim,
            window=self.window, epochs=self.epochs, seed=self.seed,
        )
        return self

    def node_embeddings(self) -> np.ndarray:
        if self._embeddings is None:
            raise RuntimeError("call fit() before reading embeddings")
        return self._embeddings


class Node2Vec(DeepWalk):
    """Second-order biased walks (Grover & Leskovec, 2016)."""

    name = "node2vec"

    def __init__(self, embedding_dim: int = 64, walk_length: int = 20,
                 walks_per_node: int = 5, window: int = 5, epochs: int = 2,
                 p: float = 1.0, q: float = 0.5, seed: int = 0):
        super().__init__(embedding_dim, walk_length, walks_per_node, window, epochs, seed)
        if p <= 0 or q <= 0:
            raise ValueError("p and q must be positive")
        self.p = p
        self.q = q

    def _generate_walks(self, graph: StaticGraph, rng: np.random.Generator) -> list[list[int]]:
        walks = []
        nodes = [node for node in range(graph.num_nodes) if graph.degree(node) > 0]
        for _ in range(self.walks_per_node):
            rng.shuffle(nodes)
            for start in nodes:
                walk = [start]
                previous = None
                current = start
                for _ in range(self.walk_length - 1):
                    neighbors = graph.neighbors(current)
                    if len(neighbors) == 0:
                        break
                    if previous is None:
                        next_node = int(rng.choice(neighbors))
                    else:
                        previous_neighbors = set(graph.neighbors(previous).tolist())
                        weights = np.empty(len(neighbors))
                        for index, candidate in enumerate(neighbors):
                            if candidate == previous:
                                weights[index] = 1.0 / self.p
                            elif int(candidate) in previous_neighbors:
                                weights[index] = 1.0
                            else:
                                weights[index] = 1.0 / self.q
                        weights /= weights.sum()
                        next_node = int(rng.choice(neighbors, p=weights))
                    walk.append(next_node)
                    previous, current = current, next_node
                walks.append(walk)
        return walks


class CTDNE(StaticBaseline):
    """Continuous-time dynamic network embeddings via temporal walks (Nguyen et al., 2018)."""

    name = "ctdne"

    def __init__(self, embedding_dim: int = 64, walk_length: int = 20,
                 walks_per_node: int = 5, window: int = 5, epochs: int = 2,
                 seed: int = 0):
        self.embedding_dim = embedding_dim
        self.walk_length = walk_length
        self.walks_per_node = walks_per_node
        self.window = window
        self.epochs = epochs
        self.seed = seed
        self._embeddings: np.ndarray | None = None

    def _temporal_walk(self, graph: GraphView, start: int,
                       rng: np.random.Generator) -> list[int]:
        """One walk whose consecutive edge timestamps are non-decreasing."""
        neighbors, _, timestamps = graph.node_events(start)
        if len(neighbors) == 0:
            return [start]
        pick = int(rng.integers(len(neighbors)))
        walk = [start, int(neighbors[pick])]
        current_time = float(timestamps[pick])
        current = int(neighbors[pick])
        for _ in range(self.walk_length - 2):
            neighbors, _, timestamps = graph.node_events(current)
            future = timestamps >= current_time
            if not future.any():
                break
            candidates = np.where(future)[0]
            pick = int(rng.choice(candidates))
            current_time = float(timestamps[pick])
            current = int(neighbors[pick])
            walk.append(current)
        return walk

    def fit(self, dataset: TemporalDataset, split: DatasetSplit) -> "CTDNE":
        _, temporal = _training_graphs(dataset, split)
        rng = np.random.default_rng(self.seed)
        active = temporal.active_nodes().tolist()
        walks = []
        for _ in range(self.walks_per_node):
            rng.shuffle(active)
            for start in active:
                walks.append(self._temporal_walk(temporal, int(start), rng))
        self._embeddings = train_skipgram(
            walks, dataset.num_nodes, embedding_dim=self.embedding_dim,
            window=self.window, epochs=self.epochs, seed=self.seed,
        )
        return self

    def node_embeddings(self) -> np.ndarray:
        if self._embeddings is None:
            raise RuntimeError("call fit() before reading embeddings")
        return self._embeddings
