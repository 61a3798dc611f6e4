"""TGN baseline (Rossi et al., 2020): temporal graph network with node memory.

TGN combines JODIE-style node memory with TGAT-style temporal graph
attention.  For each event the model:

1. builds a *message* for both endpoints from their memories, the edge
   feature and a time encoding of the time since their last update;
2. updates the memories with a GRU cell (in ``update_state``);
3. embeds a node, on the critical path, by temporal attention over its
   sampled neighbours' memories (1 or 2 layers) — this neighbour query is
   what APAN removes from the critical path.
"""

from __future__ import annotations

import numpy as np

from ..core.decoder import LinkPredictionDecoder
from ..core.interfaces import BatchEmbeddings, TemporalEmbeddingModel
from ..graph.batching import EventBatch
from ..graph.neighbor_sampler import make_sampler
from ..nn import functional as F
from ..nn.layers import GRUCell, TimeEncode
from ..nn.tensor import Tensor, no_grad
from ..storage import EventStore, GraphView
from .memory import NodeMemory
from .temporal_attention import TemporalAttentionLayer

__all__ = ["TGN"]


class TGN(TemporalEmbeddingModel):
    """Temporal Graph Network (memory + temporal attention)."""

    def __init__(self, num_nodes: int, edge_feature_dim: int,
                 memory_dim: int | None = None, embedding_dim: int | None = None,
                 num_layers: int = 1, num_neighbors: int = 10, num_heads: int = 2,
                 time_dim: int = 32, sampling: str = "recent", seed: int = 0):
        if num_layers not in (1, 2):
            raise ValueError("TGN supports 1 or 2 layers")
        memory_dim = memory_dim or edge_feature_dim
        embedding_dim = embedding_dim or memory_dim
        super().__init__(num_nodes, edge_feature_dim, embedding_dim)
        self.memory_dim = memory_dim
        self.num_layers = num_layers
        self.num_neighbors = num_neighbors
        self.sampling = sampling
        self._seed = seed
        rng = np.random.default_rng(seed)

        message_dim = 2 * memory_dim + edge_feature_dim + time_dim
        self.time_encoder = TimeEncode(time_dim)
        self.memory_updater = GRUCell(message_dim, memory_dim, rng=rng)

        self.layers = []
        for index in range(num_layers):
            node_dim = memory_dim if index == 0 else embedding_dim
            layer = TemporalAttentionLayer(
                node_dim=node_dim, edge_feature_dim=edge_feature_dim,
                time_dim=time_dim, output_dim=embedding_dim,
                num_heads=num_heads, rng=rng,
            )
            setattr(self, f"layer_{index}", layer)
            self.layers.append(layer)
        self.link_decoder = LinkPredictionDecoder(embedding_dim, rng=rng)

        self.memory = NodeMemory(num_nodes, memory_dim)
        self.graph = GraphView(EventStore(num_nodes, edge_feature_dim))
        self._sampler = make_sampler(sampling, self.graph,
                                     num_neighbors=num_neighbors, seed=seed)

    # ------------------------------------------------------------------ #
    def reset_state(self) -> None:
        self.memory.reset()
        self.graph = GraphView(EventStore(self.num_nodes, self.edge_feature_dim))
        self._sampler = make_sampler(self.sampling, self.graph,
                                     num_neighbors=self.num_neighbors, seed=self._seed)

    # ------------------------------------------------------------------ #
    # Embedding: temporal attention over neighbours' memories
    # ------------------------------------------------------------------ #
    def _memory_representation(self, nodes: np.ndarray, times: np.ndarray) -> Tensor:
        return Tensor(self.memory.get(nodes))

    def _embed(self, nodes: np.ndarray, times: np.ndarray, layer_index: int) -> Tensor:
        if layer_index == 0:
            return self._memory_representation(nodes, times)
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

    # ------------------------------------------------------------------ #
    def update_state(self, batch: EventBatch, embeddings: BatchEmbeddings) -> None:
        """Update node memories with GRU messages, then ingest the events."""
        src, dst = batch.src, batch.dst
        times = batch.timestamps
        with no_grad():
            src_memory = Tensor(self.memory.get(src))
            dst_memory = Tensor(self.memory.get(dst))
            edge_features = Tensor(batch.edge_features)
            src_delta = self.time_encoder(self.memory.time_since_update(src, times))
            dst_delta = self.time_encoder(self.memory.time_since_update(dst, times))

            src_message = F.concat([src_memory, dst_memory, edge_features, src_delta], axis=-1)
            dst_message = F.concat([dst_memory, src_memory, edge_features, dst_delta], axis=-1)
            new_src_memory = self.memory_updater(src_message, src_memory)
            new_dst_memory = self.memory_updater(dst_message, dst_memory)

        self.memory.set(src, new_src_memory.data, times)
        self.memory.set(dst, new_dst_memory.data, times)

        self.graph.store.append_batch(batch.src, batch.dst, batch.timestamps,
                                      batch.edge_features, batch.labels)

    def link_logits(self, src_embedding: Tensor, dst_embedding: Tensor) -> Tensor:
        return self.link_decoder(src_embedding, dst_embedding)
