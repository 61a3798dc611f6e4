"""The APAN model: encoder + decoders + asynchronous mail propagator.

The model keeps three pieces of streaming state:

* ``node_state`` — each node's last computed embedding ``z(t-)`` (paper
  Figure 4), a plain NumPy matrix because it is state, not a parameter;
* ``last_update`` — the time each node last had its embedding refreshed;
* the :class:`~repro.core.mailbox.Mailbox` and the propagator's internal
  temporal graph store.

``compute_embeddings`` is the synchronous path: it reads the mailbox and the
node state and runs the attention encoder.  It performs **no** temporal graph
queries — the defining property of the asynchronous CTDG framework.
``update_state`` is the asynchronous path: it writes the refreshed node
states, generates the batch's mails, and propagates them to the k-hop
temporal neighbourhood.
"""

from __future__ import annotations

import numpy as np

from ..graph.batching import EventBatch
from ..nn.tensor import Tensor
from .config import APANConfig
from .decoder import (
    EdgeClassificationDecoder,
    LinkPredictionDecoder,
    NodeClassificationDecoder,
)
from .encoder import APANEncoder
from .interfaces import BatchEmbeddings, TemporalEmbeddingModel
from .mailbox import Mailbox
from .propagator import MailPropagator

__all__ = ["APAN"]


class APAN(TemporalEmbeddingModel):
    """Asynchronous Propagation Attention Network."""

    def __init__(self, num_nodes: int, edge_feature_dim: int,
                 config: APANConfig | None = None):
        config = (config or APANConfig()).validate()
        # The paper fixes the node embedding dimension to the edge feature
        # dimension so that the sum-form mail is well defined (§3.5).
        embedding_dim = edge_feature_dim
        super().__init__(num_nodes, edge_feature_dim, embedding_dim)
        self.config = config
        rng = np.random.default_rng(config.seed)

        self.mailbox = Mailbox(
            num_nodes=num_nodes,
            num_slots=config.num_mailbox_slots,
            mail_dim=embedding_dim,
            update_policy=config.mailbox_update,
            seed=config.seed,
        )
        self.propagator = MailPropagator(
            mailbox=self.mailbox,
            num_nodes=num_nodes,
            edge_feature_dim=edge_feature_dim,
            **config.propagator_kwargs(),
        )
        self.encoder = APANEncoder(
            embedding_dim=embedding_dim,
            num_slots=config.num_mailbox_slots,
            num_heads=config.num_attention_heads,
            hidden_dim=config.mlp_hidden_dim,
            dropout=config.dropout,
            positional_encoding=config.positional_encoding,
            rng=rng,
        )
        self.link_decoder = LinkPredictionDecoder(
            embedding_dim, hidden_dim=config.mlp_hidden_dim,
            dropout=config.dropout, rng=rng,
        )
        self.edge_decoder = EdgeClassificationDecoder(
            embedding_dim, edge_feature_dim, hidden_dim=config.mlp_hidden_dim,
            dropout=config.dropout, rng=rng,
        )
        self.node_decoder = NodeClassificationDecoder(
            embedding_dim, hidden_dim=config.mlp_hidden_dim,
            dropout=config.dropout, rng=rng,
        )

        # Streaming state (not learnable parameters).
        self.register_buffer("node_state", np.zeros((num_nodes, embedding_dim)))
        self.register_buffer("last_update", np.zeros(num_nodes))

    # ------------------------------------------------------------------ #
    # Streaming state management
    # ------------------------------------------------------------------ #
    def reset_state(self) -> None:
        self.node_state[:] = 0.0
        self.last_update[:] = 0.0
        self.propagator.reset()

    def state_snapshot(self) -> dict[str, np.ndarray]:
        """Copy of the streaming state; restore with :meth:`restore_state`.

        Used to checkpoint the state at the train/validation boundary so the
        test evaluation can continue from it (the standard CTDG protocol).
        """
        return {
            "node_state": self.node_state.copy(),
            "last_update": self.last_update.copy(),
            **self.mailbox.snapshot(prefix="mailbox_"),
        }

    def restore_state(self, snapshot: dict[str, np.ndarray]) -> None:
        self.node_state[:] = snapshot["node_state"]
        self.last_update[:] = snapshot["last_update"]
        self.mailbox.restore(snapshot, prefix="mailbox_")

    # ------------------------------------------------------------------ #
    # Synchronous inference path
    # ------------------------------------------------------------------ #
    def _encode_nodes(self, nodes: np.ndarray, current_time: float) -> Tensor:
        """Run the batched encoder for a set of (not necessarily unique) nodes."""
        nodes = np.asarray(nodes, dtype=np.int64)
        last_embeddings = Tensor(self.node_state[nodes])
        mails, mail_times, valid = self.mailbox.read(nodes)
        return self.encoder.encode_many(last_embeddings, mails, mail_times,
                                        valid, current_time)

    def compute_embeddings(self, batch: EventBatch) -> BatchEmbeddings:
        """Produce embeddings for batch endpoints (and negatives, if sampled).

        All endpoints (and negatives) go through **one** batched encoder call:
        :meth:`Mailbox.gather_many` deduplicates the node ids and stacks their
        mailboxes, :meth:`APANEncoder.encode_many` encodes the distinct nodes
        in single array ops, and the ``inverse`` map scatters the rows back to
        per-event positions.  Nodes that appear multiple times in the batch
        are therefore encoded only once (paper §3.2) and their embedding is
        shared across the events.
        """
        current_time = batch.end_time
        to_encode = [batch.src, batch.dst]
        if batch.negatives is not None:
            to_encode.append(batch.negatives)
        gather = self.mailbox.gather_many(*to_encode)

        unique_embeddings = self.encoder.encode_many(
            Tensor(self.node_state[gather.nodes]),
            gather.mails, gather.times, gather.valid, current_time,
        )
        gathered = unique_embeddings.gather_rows(gather.inverse)

        count = len(batch)
        src_embeddings = gathered[0:count]
        dst_embeddings = gathered[count:2 * count]
        neg_embeddings = gathered[2 * count:3 * count] if batch.negatives is not None else None
        self._last_unique_nodes = gather.nodes
        self._last_unique_embeddings = unique_embeddings.data
        return BatchEmbeddings(src=src_embeddings, dst=dst_embeddings, neg=neg_embeddings)

    # ------------------------------------------------------------------ #
    # Asynchronous propagation path
    # ------------------------------------------------------------------ #
    def apply_embedding_updates(self, batch: EventBatch,
                                embeddings: BatchEmbeddings) -> None:
        """Refresh ``node_state``/``last_update`` for the batch's endpoints.

        This is the cheap half of :meth:`update_state`; the multi-process
        serving runtime runs it on the scorer while the heavy mail
        propagation happens in worker processes.
        """
        src_data = embeddings.src.data
        dst_data = embeddings.dst.data

        # Update z(t-) for the interacting nodes.  When a node appears several
        # times in the batch, the last occurrence wins (events are ordered).
        nodes = np.concatenate([batch.src, batch.dst])
        values = np.concatenate([src_data, dst_data], axis=0)
        times = np.concatenate([batch.timestamps, batch.timestamps])
        order = np.argsort(times, kind="stable")
        self.node_state[nodes[order]] = values[order]
        np.maximum.at(self.last_update, nodes, times)

    def update_state(self, batch: EventBatch, embeddings: BatchEmbeddings) -> None:
        """Refresh node states and run the mail propagator for the batch."""
        self.apply_embedding_updates(batch, embeddings)
        self.propagator.propagate(batch, embeddings.src.data, embeddings.dst.data)

    # ------------------------------------------------------------------ #
    # Prediction heads
    # ------------------------------------------------------------------ #
    def link_logits(self, src_embedding: Tensor, dst_embedding: Tensor) -> Tensor:
        return self.link_decoder(src_embedding, dst_embedding)

    def edge_logits(self, src_embedding: Tensor, edge_features: np.ndarray,
                    dst_embedding: Tensor) -> Tensor:
        return self.edge_decoder(src_embedding, edge_features, dst_embedding)

    def node_logits(self, node_embedding: Tensor) -> Tensor:
        return self.node_decoder(node_embedding)

    # ------------------------------------------------------------------ #
    # Read-only embedding access
    # ------------------------------------------------------------------ #
    def embed_nodes(self, nodes: np.ndarray, time: float) -> Tensor:
        """Current embeddings of ``nodes`` at ``time`` (does not change state)."""
        return self._encode_nodes(np.asarray(nodes, dtype=np.int64), time)

    @property
    def last_attention_weights(self) -> np.ndarray | None:
        """Encoder attention weights of the most recent forward pass."""
        return self.encoder.last_attention_weights
