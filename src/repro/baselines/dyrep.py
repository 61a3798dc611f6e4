"""DyRep baseline (Trivedi et al., ICLR 2019), adapted to the TGN framing.

DyRep updates a per-node memory from messages that include an aggregation of
the *other* endpoint's temporal neighbourhood ("localised embedding
propagation"), and reads a node's embedding directly from its memory through
a linear head.  Following the TGN paper's re-implementation, the neighbour
aggregation is a mean over the sampled temporal neighbours' memories; the
aggregation happens on the critical path when embedding the destination side
of a fresh event, so DyRep sits between JODIE and TGAT/TGN in latency
(Figure 6) while its attention-free aggregation limits accuracy.
"""

from __future__ import annotations

import numpy as np

from ..core.decoder import LinkPredictionDecoder
from ..core.interfaces import BatchEmbeddings, TemporalEmbeddingModel
from ..graph.batching import EventBatch
from ..graph.neighbor_sampler import make_sampler
from ..nn import functional as F
from ..nn.layers import GRUCell, Linear, TimeEncode
from ..nn.tensor import Tensor, no_grad
from ..storage import EventStore, GraphView
from .memory import NodeMemory

__all__ = ["DyRep"]


class DyRep(TemporalEmbeddingModel):
    """DyRep: memory with neighbour-aggregated messages, identity readout."""

    def __init__(self, num_nodes: int, edge_feature_dim: int,
                 memory_dim: int | None = None, num_neighbors: int = 10,
                 time_dim: int = 32, sampling: str = "recent", seed: int = 0):
        memory_dim = memory_dim or edge_feature_dim
        super().__init__(num_nodes, edge_feature_dim, memory_dim)
        self.memory_dim = memory_dim
        self.num_neighbors = num_neighbors
        self.sampling = sampling
        self._seed = seed
        rng = np.random.default_rng(seed)

        message_dim = 2 * memory_dim + edge_feature_dim + time_dim
        self.time_encoder = TimeEncode(time_dim)
        self.memory_updater = GRUCell(message_dim, memory_dim, rng=rng)
        self.readout = Linear(2 * memory_dim, memory_dim, rng=rng)
        self.link_decoder = LinkPredictionDecoder(memory_dim, rng=rng)

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
    def _neighbor_mean_memory(self, nodes: np.ndarray, times: np.ndarray) -> np.ndarray:
        """Mean memory of each node's sampled temporal neighbours."""
        result = np.zeros((len(nodes), self.memory_dim))
        for row, (node, timestamp) in enumerate(zip(nodes, times)):
            sample = self._sampler.sample(int(node), float(timestamp))
            if sample.num_valid == 0:
                continue
            neighbors = sample.neighbors[sample.mask]
            result[row] = self.memory.get(neighbors).mean(axis=0)
        return result

    def _readout(self, nodes: np.ndarray, times: np.ndarray) -> Tensor:
        own_memory = Tensor(self.memory.get(nodes))
        neighborhood = Tensor(self._neighbor_mean_memory(nodes, times))
        return self.readout(F.concat([own_memory, neighborhood], axis=-1))

    def embed_nodes(self, nodes: np.ndarray, time: float) -> Tensor:
        nodes = np.asarray(nodes, dtype=np.int64)
        return self._readout(nodes, np.full(len(nodes), time))

    # ------------------------------------------------------------------ #
    def compute_embeddings(self, batch: EventBatch) -> BatchEmbeddings:
        to_encode = [batch.src, batch.dst]
        if batch.negatives is not None:
            to_encode.append(batch.negatives)
        all_nodes = np.concatenate(to_encode)
        all_times = np.tile(batch.timestamps, len(to_encode))
        embeddings = self._readout(all_nodes, all_times)
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
            # DyRep's message carries the other endpoint's neighbourhood.
            dst_neighborhood = Tensor(self._neighbor_mean_memory(dst, times))
            src_neighborhood = Tensor(self._neighbor_mean_memory(src, times))
            edge_features = Tensor(batch.edge_features)
            src_delta = self.time_encoder(self.memory.time_since_update(src, times))
            dst_delta = self.time_encoder(self.memory.time_since_update(dst, times))
            new_src = self.memory_updater(
                F.concat([dst_memory, dst_neighborhood, edge_features, src_delta], axis=-1),
                src_memory,
            )
            new_dst = self.memory_updater(
                F.concat([src_memory, src_neighborhood, edge_features, dst_delta], axis=-1),
                dst_memory,
            )
        self.memory.set(src, new_src.data, times)
        self.memory.set(dst, new_dst.data, times)
        self.graph.store.append_batch(batch.src, batch.dst, batch.timestamps,
                                      batch.edge_features, batch.labels)

    def link_logits(self, src_embedding: Tensor, dst_embedding: Tensor) -> Tensor:
        return self.link_decoder(src_embedding, dst_embedding)
