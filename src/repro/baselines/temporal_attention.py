"""Temporal graph attention layer shared by the TGAT and TGN baselines.

One layer aggregates, for each target node at time ``t``, its sampled temporal
neighbours: the attention query is the target's current representation
concatenated with a time encoding of zero; keys/values are the neighbours'
representations concatenated with the connecting edge's features and the time
encoding of ``t - t_edge`` (Xu et al., 2020).
"""

from __future__ import annotations

import numpy as np

from ..graph.neighbor_sampler import TemporalNeighborSampler
from ..nn.attention import MultiHeadAttention
from ..nn.layers import Linear, MLP, TimeEncode
from ..nn.module import Module
from ..nn.tensor import Tensor
from ..nn import functional as F

__all__ = ["TemporalAttentionLayer"]


class TemporalAttentionLayer(Module):
    """One hop of temporal graph attention over sampled neighbours."""

    def __init__(self, node_dim: int, edge_feature_dim: int, time_dim: int,
                 output_dim: int, num_heads: int = 2,
                 rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng()
        self.node_dim = node_dim
        self.edge_feature_dim = edge_feature_dim
        self.time_dim = time_dim
        self.output_dim = output_dim

        self.time_encoder = TimeEncode(time_dim)
        query_dim = node_dim + time_dim
        key_dim = node_dim + edge_feature_dim + time_dim
        head_dim = max(1, output_dim // num_heads)
        self.attention = MultiHeadAttention(
            query_dim=query_dim, key_dim=key_dim, num_heads=num_heads,
            head_dim=head_dim, rng=rng,
        )
        self.merge = MLP(query_dim + query_dim, output_dim, output_dim,
                         num_layers=2, rng=rng)
        self.skip = Linear(node_dim, output_dim, rng=rng)

    def forward(self, target_repr: Tensor, target_times: np.ndarray,
                neighbor_repr: Tensor, neighbor_times: np.ndarray,
                neighbor_edge_features: np.ndarray, valid: np.ndarray) -> Tensor:
        """Aggregate one batch of targets.

        Shapes: ``target_repr`` is ``(batch, node_dim)``; ``neighbor_repr`` is
        ``(batch, k, node_dim)``; ``neighbor_edge_features`` is
        ``(batch, k, edge_feature_dim)``; ``neighbor_times`` and ``valid`` are
        ``(batch, k)``.
        """
        batch, k = valid.shape
        zero_delta = self.time_encoder(np.zeros(batch))
        query = F.concat([target_repr, zero_delta], axis=-1).reshape(batch, 1, -1)

        deltas = np.maximum(target_times[:, None] - neighbor_times, 0.0)
        delta_encoding = self.time_encoder(deltas.reshape(-1)).reshape(batch, k, -1)
        keys = F.concat(
            [neighbor_repr, Tensor(neighbor_edge_features), delta_encoding], axis=-1
        )

        attended = self.attention(query, keys, keys, mask=valid)
        attended = attended.reshape(batch, -1)
        # Nodes with no valid neighbours fall back to their own representation.
        has_neighbors = valid.any(axis=1).astype(np.float64)[:, None]
        attended = attended * Tensor(has_neighbors)
        merged = self.merge(F.concat([attended, query.reshape(batch, -1)], axis=-1))
        return merged + self.skip(target_repr)

    # ------------------------------------------------------------------ #
    def gather_neighbor_inputs(self, sampler: TemporalNeighborSampler,
                               nodes: np.ndarray, times: np.ndarray,
                               node_repr_fn, graph):
        """Sample neighbours of ``nodes`` at ``times`` and assemble dense inputs.

        ``node_repr_fn(nodes, times)`` must return a ``(n, node_dim)`` Tensor
        of representations for arbitrary nodes (used recursively by 2-layer
        models); ``graph`` is the model's internal
        :class:`~repro.storage.graph_view.GraphView` (used for the edge
        feature lookup).  Returns ``(neighbor_repr, neighbor_times,
        neighbor_edge_feats, valid)`` ready for :meth:`forward`.
        """
        k = sampler.num_neighbors
        batch = len(nodes)
        all_neighbors = np.zeros((batch, k), dtype=np.int64)
        all_times = np.zeros((batch, k))
        all_edges = np.full((batch, k), -1, dtype=np.int64)
        valid = np.zeros((batch, k), dtype=bool)
        for row, (node, timestamp) in enumerate(zip(nodes, times)):
            sample = sampler.sample(int(node), float(timestamp))
            all_neighbors[row] = np.where(sample.mask, sample.neighbors, 0)
            all_times[row] = sample.timestamps
            all_edges[row] = np.where(sample.mask, sample.edge_ids, -1)
            valid[row] = sample.mask

        flat_neighbors = all_neighbors.reshape(-1)
        flat_times = all_times.reshape(-1)
        neighbor_repr = node_repr_fn(flat_neighbors, flat_times).reshape(batch, k, -1)
        neighbor_edge_features = graph.edge_features_for(all_edges.reshape(-1)).reshape(
            batch, k, -1
        )
        return neighbor_repr, all_times, neighbor_edge_features, valid
