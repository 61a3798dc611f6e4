"""MLP decoders for downstream tasks (paper §3.4).

The encoder and the mail propagator are task-agnostic; only the decoder
changes per task:

* **Link prediction** — concatenate the two node embeddings ``(z_i || z_j)``.
* **Edge classification** — concatenate embeddings and the edge feature
  ``(z_i || e_ij || z_j)`` (the Alipay fraud task).
* **Node classification** — a single node embedding (dynamic ban labels).

All decoders emit raw logits; losses apply the sigmoid.
"""

from __future__ import annotations

import numpy as np

from ..nn import functional as F
from ..nn.layers import MLP
from ..nn.module import Module
from ..nn.tensor import Tensor, is_grad_enabled

__all__ = ["LinkPredictionDecoder", "EdgeClassificationDecoder", "NodeClassificationDecoder"]


class LinkPredictionDecoder(Module):
    """Scores the existence of an interaction between two nodes."""

    def __init__(self, embedding_dim: int, hidden_dim: int = 80, dropout: float = 0.1,
                 rng: np.random.Generator | None = None):
        super().__init__()
        self.network = MLP(2 * embedding_dim, hidden_dim, 1,
                           num_layers=2, dropout=dropout, rng=rng)

    def forward(self, src_embedding: Tensor, dst_embedding: Tensor) -> Tensor:
        """Return logits of shape ``(batch,)``."""
        if not is_grad_enabled() and not (self.training and self.network.dropout > 0.0):
            # Inference: the same arithmetic without ``Tensor`` graph nodes.
            pair = np.concatenate([src_embedding.data, dst_embedding.data], axis=-1)
            return Tensor(self.network.infer(pair).reshape(-1))
        pair = F.concat([src_embedding, dst_embedding], axis=-1)
        return self.network(pair).reshape(-1)


class EdgeClassificationDecoder(Module):
    """Classifies an interaction (e.g. fraudulent / legitimate transaction)."""

    def __init__(self, embedding_dim: int, edge_feature_dim: int, hidden_dim: int = 80,
                 dropout: float = 0.1, num_classes: int = 1,
                 rng: np.random.Generator | None = None):
        super().__init__()
        self.num_classes = num_classes
        self.network = MLP(2 * embedding_dim + edge_feature_dim, hidden_dim, num_classes,
                           num_layers=2, dropout=dropout, rng=rng)

    def forward(self, src_embedding: Tensor, edge_features: np.ndarray,
                dst_embedding: Tensor) -> Tensor:
        """Return logits of shape ``(batch,)`` (binary) or ``(batch, num_classes)``."""
        triple = F.concat([src_embedding, Tensor(edge_features), dst_embedding], axis=-1)
        logits = self.network(triple)
        if self.num_classes == 1:
            return logits.reshape(-1)
        return logits


class NodeClassificationDecoder(Module):
    """Classifies a node's dynamic state from its temporal embedding."""

    def __init__(self, embedding_dim: int, hidden_dim: int = 80, dropout: float = 0.1,
                 num_classes: int = 1, rng: np.random.Generator | None = None):
        super().__init__()
        self.num_classes = num_classes
        self.network = MLP(embedding_dim, hidden_dim, num_classes,
                           num_layers=2, dropout=dropout, rng=rng)

    def forward(self, node_embedding: Tensor) -> Tensor:
        logits = self.network(node_embedding)
        if self.num_classes == 1:
            return logits.reshape(-1)
        return logits
