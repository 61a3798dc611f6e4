"""Static GNN baselines: GraphSAGE, GAT, GAE and VGAE.

All four operate on the static collapse of the *training window* (Figure 1b's
time-agnostic view) with node features built from incident edge features.
They are trained on link prediction over the training edges with uniformly
sampled negative pairs and evaluated with the shared static protocol, so their
numbers are directly comparable to the dynamic models in Table 2/3.

The propagation is dense-matrix based (normalised adjacency), which is exact
and simple; it is intended for the benchmark-scale graphs this repository
evaluates on (the real full-size datasets would require sparse propagation —
noted in DESIGN.md).
"""

from __future__ import annotations

import numpy as np

from ...datasets.base import DatasetSplit, TemporalDataset
from ...graph.static_graph import StaticGraph
from ...nn import functional as F
from ...nn.layers import Linear
from ...nn.module import Module
from ...nn.optim import Adam
from ...nn.tensor import Tensor, no_grad
from ..static_base import StaticBaseline
from .features import build_node_features

__all__ = ["GraphSAGEBaseline", "GATBaseline", "GAEBaseline", "VGAEBaseline"]


def _training_static_graph(dataset: TemporalDataset, split: DatasetSplit) -> StaticGraph:
    training = dataset.to_temporal_graph().slice_events(0, split.train_end)
    return StaticGraph.from_temporal(training)


class _SAGEEncoder(Module):
    """Two GraphSAGE layers with mean aggregation over the dense adjacency."""

    def __init__(self, in_dim: int, hidden_dim: int, out_dim: int,
                 rng: np.random.Generator):
        super().__init__()
        self.layer1_self = Linear(in_dim, hidden_dim, rng=rng)
        self.layer1_neigh = Linear(in_dim, hidden_dim, rng=rng)
        self.layer2_self = Linear(hidden_dim, out_dim, rng=rng)
        self.layer2_neigh = Linear(hidden_dim, out_dim, rng=rng)

    def forward(self, features: Tensor, mean_adjacency: np.ndarray) -> Tensor:
        adjacency = Tensor(mean_adjacency)
        hidden = (self.layer1_self(features) + self.layer1_neigh(adjacency.matmul(features))).relu()
        return self.layer2_self(hidden) + self.layer2_neigh(adjacency.matmul(hidden))


class _GATEncoder(Module):
    """Two single-head GAT layers with dense masked attention."""

    def __init__(self, in_dim: int, hidden_dim: int, out_dim: int,
                 rng: np.random.Generator):
        super().__init__()
        self.project1 = Linear(in_dim, hidden_dim, rng=rng)
        self.attention1 = Linear(2 * hidden_dim, 1, rng=rng)
        self.project2 = Linear(hidden_dim, out_dim, rng=rng)
        self.attention2 = Linear(2 * out_dim, 1, rng=rng)

    def _gat_layer(self, features: Tensor, adjacency_mask: np.ndarray,
                   project: Linear, attention: Linear) -> Tensor:
        projected = project(features)
        num_nodes, dim = projected.shape
        # Pairwise attention logits a([h_i || h_j]) realised via broadcasting:
        # a = w_left . h_i + w_right . h_j.
        w = attention.weight
        left = projected.matmul(w[:dim, :]).reshape(num_nodes, 1)
        right = projected.matmul(w[dim:, :]).reshape(1, num_nodes)
        logits = (left + right + attention.bias).leaky_relu(0.2)
        weights = F.masked_softmax(logits, adjacency_mask, axis=-1)
        return weights.matmul(projected)

    def forward(self, features: Tensor, adjacency_mask: np.ndarray) -> Tensor:
        hidden = self._gat_layer(features, adjacency_mask, self.project1, self.attention1).relu()
        return self._gat_layer(hidden, adjacency_mask, self.project2, self.attention2)


class _GCNEncoder(Module):
    """Two GCN layers (used by GAE/VGAE); VGAE adds a log-variance head."""

    def __init__(self, in_dim: int, hidden_dim: int, out_dim: int,
                 rng: np.random.Generator, variational: bool = False):
        super().__init__()
        self.layer1 = Linear(in_dim, hidden_dim, rng=rng)
        self.layer_mu = Linear(hidden_dim, out_dim, rng=rng)
        self.variational = variational
        if variational:
            self.layer_logvar = Linear(hidden_dim, out_dim, rng=rng)

    def forward(self, features: Tensor, normalized_adjacency: np.ndarray):
        adjacency = Tensor(normalized_adjacency)
        hidden = adjacency.matmul(self.layer1(features)).relu()
        mu = adjacency.matmul(self.layer_mu(hidden))
        if not self.variational:
            return mu, None
        logvar = adjacency.matmul(self.layer_logvar(hidden))
        return mu, logvar


class _StaticGNNBaseline(StaticBaseline):
    """Shared fit/score machinery for the four static GNN baselines."""

    name = "static-gnn"
    uses_attention_mask = False
    uses_mean_adjacency = False

    def __init__(self, embedding_dim: int = 64, hidden_dim: int = 64,
                 epochs: int = 30, learning_rate: float = 0.01, seed: int = 0):
        self.embedding_dim = embedding_dim
        self.hidden_dim = hidden_dim
        self.epochs = epochs
        self.learning_rate = learning_rate
        self.seed = seed
        self._embeddings: np.ndarray | None = None

    # Subclasses build their encoder and the propagation operator.
    def _build_encoder(self, in_dim: int, rng: np.random.Generator) -> Module:
        raise NotImplementedError

    def _propagation_operator(self, graph: StaticGraph) -> np.ndarray:
        raise NotImplementedError

    def _encode(self, encoder: Module, features: Tensor, operator: np.ndarray) -> Tensor:
        raise NotImplementedError

    def _extra_loss(self, encoder_output) -> Tensor | None:
        return None

    def fit(self, dataset: TemporalDataset, split: DatasetSplit) -> "_StaticGNNBaseline":
        rng = np.random.default_rng(self.seed)
        graph = _training_static_graph(dataset, split)
        features = build_node_features(dataset, split)
        operator = self._propagation_operator(graph)
        encoder = self._build_encoder(features.shape[1], rng)
        optimizer = Adam(encoder.parameters(), lr=self.learning_rate)

        edges = graph.edges()
        if len(edges) == 0:
            self._embeddings = np.zeros((dataset.num_nodes, self.embedding_dim))
            return self
        features_tensor = Tensor(features)
        all_nodes = np.unique(edges.reshape(-1))

        for _ in range(self.epochs):
            embeddings = self._encode(encoder, features_tensor, operator)
            # Link-prediction loss on the training edges vs random negatives.
            negative_dst = rng.choice(all_nodes, size=len(edges))
            src_emb = embeddings.gather_rows(edges[:, 0])
            dst_emb = embeddings.gather_rows(edges[:, 1])
            neg_emb = embeddings.gather_rows(negative_dst)
            positive_logits = (src_emb * dst_emb).sum(axis=1)
            negative_logits = (src_emb * neg_emb).sum(axis=1)
            logits = F.concat([positive_logits, negative_logits], axis=0)
            targets = np.concatenate([np.ones(len(edges)), np.zeros(len(edges))])
            loss = F.binary_cross_entropy_with_logits(logits, targets)
            extra = self._extra_loss(self._last_encoder_output)
            if extra is not None:
                loss = loss + extra

            optimizer.zero_grad()
            loss.backward()
            optimizer.step()

        with no_grad():
            final = self._encode(encoder, features_tensor, operator)
        self._embeddings = final.data.copy()
        return self

    def node_embeddings(self) -> np.ndarray:
        if self._embeddings is None:
            raise RuntimeError("call fit() before reading embeddings")
        return self._embeddings


class GraphSAGEBaseline(_StaticGNNBaseline):
    """GraphSAGE with mean aggregation (Hamilton et al., 2017)."""

    name = "sage"

    def _build_encoder(self, in_dim, rng):
        return _SAGEEncoder(in_dim, self.hidden_dim, self.embedding_dim, rng)

    def _propagation_operator(self, graph):
        adjacency = graph.adjacency_matrix()
        degrees = np.maximum(adjacency.sum(axis=1, keepdims=True), 1.0)
        return adjacency / degrees

    def _encode(self, encoder, features, operator):
        self._last_encoder_output = None
        return encoder(features, operator)


class GATBaseline(_StaticGNNBaseline):
    """Graph attention network (Velickovic et al., 2018)."""

    name = "gat"

    def _build_encoder(self, in_dim, rng):
        return _GATEncoder(in_dim, self.hidden_dim, self.embedding_dim, rng)

    def _propagation_operator(self, graph):
        adjacency = graph.adjacency_matrix() + np.eye(graph.num_nodes)
        return adjacency > 0

    def _encode(self, encoder, features, operator):
        self._last_encoder_output = None
        return encoder(features, operator)


class GAEBaseline(_StaticGNNBaseline):
    """Graph auto-encoder with a GCN encoder (Kipf & Welling, 2016)."""

    name = "gae"
    variational = False

    def _build_encoder(self, in_dim, rng):
        return _GCNEncoder(in_dim, self.hidden_dim, self.embedding_dim, rng,
                           variational=self.variational)

    def _propagation_operator(self, graph):
        return graph.normalized_adjacency()

    def _encode(self, encoder, features, operator):
        mu, logvar = encoder(features, operator)
        self._last_encoder_output = (mu, logvar)
        if not self.variational or not encoder.training:
            return mu
        # Reparameterisation trick during training.
        noise = np.random.default_rng(self.seed).normal(size=mu.shape)
        return mu + (logvar * 0.5).exp() * Tensor(noise)

    def _extra_loss(self, encoder_output):
        if not self.variational or encoder_output is None:
            return None
        mu, logvar = encoder_output
        if logvar is None:
            return None
        ones = Tensor(np.ones_like(mu.data))
        kl = (ones + logvar - mu * mu - logvar.exp()).sum() * (-0.5 / mu.shape[0])
        return kl * 1e-3


class VGAEBaseline(GAEBaseline):
    """Variational graph auto-encoder."""

    name = "vgae"
    variational = True
