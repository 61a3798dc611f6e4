"""Common interface implemented by every temporal embedding model.

The trainer (:mod:`repro.core.trainer`), the evaluators (:mod:`repro.eval`)
and the latency harness (:mod:`repro.eval.timing`) are written against this
interface so that APAN and every baseline are interchangeable.

The interface deliberately separates the two phases the paper distinguishes:

``compute_embeddings``
    Everything that must happen *before* the business decision can be made
    (the synchronous critical path).  For APAN this is a mailbox read plus two
    feed-forward networks; for synchronous CTDG models (TGAT, TGN, ...) it
    includes the temporal neighbour queries and graph aggregation.

``update_state``
    Everything that may happen *after* the decision (the asynchronous link for
    APAN: mail propagation; for memory models: memory updates and appending
    the events to the temporal graph store).
"""

from __future__ import annotations

import numpy as np

from ..graph.batching import EventBatch
from ..nn.module import Module
from ..nn.tensor import Tensor

__all__ = ["BatchEmbeddings", "TemporalEmbeddingModel"]


class BatchEmbeddings:
    """Embeddings produced for one event batch.

    ``src``/``dst`` are aligned with the batch's events; ``neg`` (optional) is
    aligned with the sampled negative destinations.
    """

    __slots__ = ("src", "dst", "neg")

    def __init__(self, src: Tensor, dst: Tensor, neg: Tensor | None = None):
        self.src = src
        self.dst = dst
        self.neg = neg


class TemporalEmbeddingModel(Module):
    """Abstract base class for CTDG embedding models."""

    def __init__(self, num_nodes: int, edge_feature_dim: int, embedding_dim: int):
        super().__init__()
        self.num_nodes = num_nodes
        self.edge_feature_dim = edge_feature_dim
        self.embedding_dim = embedding_dim

    # ------------------------------------------------------------------ #
    # Streaming state
    # ------------------------------------------------------------------ #
    def reset_state(self) -> None:
        """Clear all streaming state (memory, mailboxes, internal event store).

        Called at the start of every training epoch and before a fresh
        evaluation pass over the chronological stream.
        """
        raise NotImplementedError

    # ------------------------------------------------------------------ #
    # The two phases
    # ------------------------------------------------------------------ #
    def compute_embeddings(self, batch: EventBatch) -> BatchEmbeddings:
        """Synchronous phase: produce embeddings for the batch's endpoints.

        If ``batch.negatives`` is set, embeddings for the negative
        destinations must be returned as well (used by the link-prediction
        loss and evaluation).
        """
        raise NotImplementedError

    def update_state(self, batch: EventBatch, embeddings: BatchEmbeddings) -> None:
        """Asynchronous phase: ingest the batch into the model's state."""
        raise NotImplementedError

    # ------------------------------------------------------------------ #
    # Prediction heads
    # ------------------------------------------------------------------ #
    def link_logits(self, src_embedding: Tensor, dst_embedding: Tensor) -> Tensor:
        """Scores for 'will src interact with dst now?' (higher = more likely)."""
        raise NotImplementedError

    def embed_nodes(self, nodes: np.ndarray, time: float) -> Tensor:
        """Current embeddings of arbitrary nodes at ``time`` (read-only).

        Used by the node-classification protocol and the examples; the default
        raises because not every baseline supports an out-of-stream readout.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not support node readout outside the stream"
        )
