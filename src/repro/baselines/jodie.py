"""JODIE baseline (Kumar et al., KDD 2019): coupled RNN memories + time projection.

JODIE keeps one memory vector per node, updated by a GRU whenever the node
interacts.  To embed a node at prediction time it *projects* the memory
forward in time: ``z(t) = (1 + Δt · w) ⊙ memory``, where Δt is the time since
the node's last interaction.  It never queries graph neighbours — which makes
it fast (Figure 6) but unable to see beyond 1-hop information, which is the
expressiveness limitation the paper points out.
"""

from __future__ import annotations

import numpy as np

from ..core.decoder import LinkPredictionDecoder
from ..core.interfaces import BatchEmbeddings, TemporalEmbeddingModel
from ..graph.batching import EventBatch
from ..nn import functional as F
from ..nn.layers import GRUCell, Linear, TimeEncode
from ..nn.module import Parameter
from ..nn.tensor import Tensor, no_grad
from .memory import NodeMemory

__all__ = ["JODIE"]


class JODIE(TemporalEmbeddingModel):
    """JODIE with a shared GRU memory updater and time-projection embedding."""

    def __init__(self, num_nodes: int, edge_feature_dim: int,
                 memory_dim: int | None = None, time_dim: int = 32, seed: int = 0):
        memory_dim = memory_dim or edge_feature_dim
        super().__init__(num_nodes, edge_feature_dim, memory_dim)
        self.memory_dim = memory_dim
        rng = np.random.default_rng(seed)

        message_dim = memory_dim + edge_feature_dim + time_dim
        self.time_encoder = TimeEncode(time_dim)
        self.memory_updater = GRUCell(message_dim, memory_dim, rng=rng)
        self.projection_weight = Parameter(rng.normal(0.0, 0.01, size=(1, memory_dim)))
        self.embedding_head = Linear(memory_dim, memory_dim, rng=rng)
        self.link_decoder = LinkPredictionDecoder(memory_dim, rng=rng)

        self.memory = NodeMemory(num_nodes, memory_dim)

    # ------------------------------------------------------------------ #
    def reset_state(self) -> None:
        self.memory.reset()

    def _project(self, nodes: np.ndarray, times: np.ndarray) -> Tensor:
        """Time-projected embedding ``(1 + Δt · w) ⊙ memory`` plus a linear head."""
        memory = Tensor(self.memory.get(nodes))
        deltas = self.memory.time_since_update(nodes, times)
        # Normalise Δt to keep the projection factor well-conditioned.
        scaled = np.log1p(deltas)[:, None]
        growth = Tensor(np.ones((len(nodes), self.memory_dim))) + Tensor(scaled) * self.projection_weight
        return self.embedding_head(memory * growth)

    def embed_nodes(self, nodes: np.ndarray, time: float) -> Tensor:
        nodes = np.asarray(nodes, dtype=np.int64)
        return self._project(nodes, np.full(len(nodes), time))

    # ------------------------------------------------------------------ #
    def compute_embeddings(self, batch: EventBatch) -> BatchEmbeddings:
        to_encode = [batch.src, batch.dst]
        if batch.negatives is not None:
            to_encode.append(batch.negatives)
        all_nodes = np.concatenate(to_encode)
        all_times = np.tile(batch.timestamps, len(to_encode))
        embeddings = self._project(all_nodes, all_times)
        count = len(batch)
        return BatchEmbeddings(
            src=embeddings[0:count],
            dst=embeddings[count:2 * count],
            neg=embeddings[2 * count:3 * count] if batch.negatives is not None else None,
        )

    def update_state(self, batch: EventBatch, embeddings: BatchEmbeddings) -> None:
        src, dst, times = batch.src, batch.dst, batch.timestamps
        with no_grad():
            src_memory = Tensor(self.memory.get(src))
            dst_memory = Tensor(self.memory.get(dst))
            edge_features = Tensor(batch.edge_features)
            src_delta = self.time_encoder(self.memory.time_since_update(src, times))
            dst_delta = self.time_encoder(self.memory.time_since_update(dst, times))
            new_src = self.memory_updater(
                F.concat([dst_memory, edge_features, src_delta], axis=-1), src_memory
            )
            new_dst = self.memory_updater(
                F.concat([src_memory, edge_features, dst_delta], axis=-1), dst_memory
            )
        self.memory.set(src, new_src.data, times)
        self.memory.set(dst, new_dst.data, times)

    def link_logits(self, src_embedding: Tensor, dst_embedding: Tensor) -> Tensor:
        return self.link_decoder(src_embedding, dst_embedding)
