"""TGAT baseline (Xu et al., ICLR 2020): temporal graph attention network.

A *synchronous* CTDG model: to embed a node at time ``t`` it must, on the
critical path, query the node's temporal neighbours (recursively for the
2-layer variant) and aggregate them with time-encoded attention.  It keeps no
per-node memory — all temporal information comes from the neighbour queries —
which is why its latency grows sharply with the number of layers (Figure 6).

Node raw features are zero in all datasets used by the paper, so the hop-0
representation is a zero vector; everything is driven by edge features and
time encodings, matching the original implementation's behaviour under
zero node features.
"""

from __future__ import annotations

import numpy as np

from ..core.decoder import LinkPredictionDecoder
from ..core.interfaces import BatchEmbeddings, TemporalEmbeddingModel
from ..graph.batching import EventBatch
from ..graph.neighbor_sampler import make_sampler
from ..nn.tensor import Tensor
from ..storage import EventStore, GraphView
from .temporal_attention import TemporalAttentionLayer

__all__ = ["TGAT"]


class TGAT(TemporalEmbeddingModel):
    """Temporal Graph Attention network with 1 or 2 aggregation layers."""

    def __init__(self, num_nodes: int, edge_feature_dim: int,
                 embedding_dim: int | None = None, num_layers: int = 2,
                 num_neighbors: int = 10, num_heads: int = 2,
                 time_dim: int = 32, sampling: str = "uniform", seed: int = 0):
        if num_layers not in (1, 2):
            raise ValueError("TGAT supports 1 or 2 layers")
        embedding_dim = embedding_dim or edge_feature_dim
        super().__init__(num_nodes, edge_feature_dim, embedding_dim)
        self.num_layers = num_layers
        self.num_neighbors = num_neighbors
        self.sampling = sampling
        self._seed = seed
        rng = np.random.default_rng(seed)

        # Layer 1 consumes hop representations of dimension embedding_dim
        # (hop-0 representations are zero-padded node features).
        self.layers = []
        for index in range(num_layers):
            layer = TemporalAttentionLayer(
                node_dim=embedding_dim, edge_feature_dim=edge_feature_dim,
                time_dim=time_dim, output_dim=embedding_dim,
                num_heads=num_heads, rng=rng,
            )
            setattr(self, f"layer_{index}", layer)
            self.layers.append(layer)
        self.link_decoder = LinkPredictionDecoder(embedding_dim, rng=rng)

        self.graph = GraphView(EventStore(num_nodes, edge_feature_dim))
        self._sampler = make_sampler(sampling, self.graph,
                                     num_neighbors=num_neighbors, seed=seed)

    # ------------------------------------------------------------------ #
    def reset_state(self) -> None:
        self.graph = GraphView(EventStore(self.num_nodes, self.edge_feature_dim))
        self._sampler = make_sampler(self.sampling, self.graph,
                                     num_neighbors=self.num_neighbors, seed=self._seed)

    # ------------------------------------------------------------------ #
    def _base_representation(self, nodes: np.ndarray, times: np.ndarray) -> Tensor:
        """Hop-0 node representation: zero node features."""
        return Tensor(np.zeros((len(nodes), self.embedding_dim)))

    def _embed(self, nodes: np.ndarray, times: np.ndarray, layer_index: int) -> Tensor:
        """Recursive temporal attention embedding (layer ``layer_index``)."""
        if layer_index == 0:
            return self._base_representation(nodes, times)
        layer = self.layers[layer_index - 1]
        target_repr = self._embed(nodes, times, layer_index - 1)
        neighbor_repr, neighbor_times, neighbor_edges, valid = layer.gather_neighbor_inputs(
            self._sampler, nodes, times,
            node_repr_fn=lambda n, t: self._embed(n, t, layer_index - 1),
            graph=self.graph,
        )
        return layer(target_repr, np.asarray(times, dtype=np.float64),
                     neighbor_repr, neighbor_times, neighbor_edges, valid)

    def embed_nodes(self, nodes: np.ndarray, time: float) -> Tensor:
        nodes = np.asarray(nodes, dtype=np.int64)
        times = np.full(len(nodes), time)
        return self._embed(nodes, times, self.num_layers)

    # ------------------------------------------------------------------ #
    def compute_embeddings(self, batch: EventBatch) -> BatchEmbeddings:
        to_encode = [batch.src, batch.dst]
        if batch.negatives is not None:
            to_encode.append(batch.negatives)
        all_nodes = np.concatenate(to_encode)
        all_times = np.tile(batch.timestamps, len(to_encode))
        embeddings = self._embed(all_nodes, all_times, self.num_layers)
        count = len(batch)
        return BatchEmbeddings(
            src=embeddings[0:count],
            dst=embeddings[count:2 * count],
            neg=embeddings[2 * count:3 * count] if batch.negatives is not None else None,
        )

    def update_state(self, batch: EventBatch, embeddings: BatchEmbeddings) -> None:
        self.graph.store.append_batch(batch.src, batch.dst, batch.timestamps,
                                      batch.edge_features, batch.labels)

    def link_logits(self, src_embedding: Tensor, dst_embedding: Tensor) -> Tensor:
        return self.link_decoder(src_embedding, dst_embedding)
