"""APAN's attention-based encoder (paper §3.3, Figure 4).

The encoder turns a node's *last* embedding ``z(t-)`` and its mailbox
``M(t)`` into its *current* embedding ``z(t)``:

1. **Positional encoding** — each mail slot gets a learned position embedding
   added to it (Eq. 2).  A Bochner time-encoding variant (TGAT's kernel,
   listed as future work in §3.6) can be selected instead.
2. **Multi-head attention** — the query is ``z(t-)``, keys and values are the
   position-encoded mailbox (Eq. 3-4); invalid (empty) mail slots are masked.
3. **Residual + layer normalisation** — ``a = MultiHead(...) + z(t-)`` then
   LayerNorm (Eq. 5).
4. **MLP head** — a two-layer feed-forward network produces the new embedding.

No graph query happens anywhere in this module — that is the point of APAN.

Engines
-------
Like the mail propagator, the encoder has two interchangeable execution
engines behind :meth:`APANEncoder.encode_many` (selected by
``APANConfig.encoder_engine``):

* ``engine="reference"`` — encode one node at a time, exactly as the paper's
  per-event description reads.  Slow (a Python-level loop over the batch),
  but trivially auditable; it defines the semantics.
* ``engine="vectorized"`` (the default) — run positional encoding, masked
  multi-head attention, LayerNorm and the MLP head over the *whole* dense
  ``(N, num_slots, dim)`` mailbox stack in single array ops.

Both engines run through the same parameter set and the same autograd ops,
so they agree to within 1e-9 whenever dropout is inactive (eval mode, or
``dropout=0.0``) — ``tests/core/test_encoder_equivalence.py`` asserts this.
With dropout *active* the engines draw different random masks (one draw per
node versus one draw per batch) and are only equal in distribution.

Inference forward: serving encodes a handful of nodes per decision, where
building ``Tensor`` graph nodes costs more than the arithmetic.  So under
``no_grad()`` with the vectorized engine, the learned positional encoding and
dropout inactive, :meth:`APANEncoder.encode_many` runs the same operations in
the same order on plain ndarrays — chosen from that state, not by an option;
outputs and ``last_attention_weights`` are *bit*-equal to the ``Tensor``
forward (``TestInferenceForward`` in the equivalence suite), which every
other case still takes.
"""

from __future__ import annotations

import numpy as np

from ..nn import functional as F
from ..nn.attention import MultiHeadAttention
from ..nn.layers import Dropout, Embedding, LayerNorm, MLP, TimeEncode
from ..nn.module import Module
from ..nn.tensor import Tensor, is_grad_enabled

__all__ = ["APANEncoder"]

_ENGINE_CHOICES = ("reference", "vectorized")


class APANEncoder(Module):
    """Mailbox-attention encoder producing temporal node embeddings."""

    def __init__(self, embedding_dim: int, num_slots: int, num_heads: int = 2,
                 hidden_dim: int = 80, dropout: float = 0.1,
                 positional_encoding: str = "learned",
                 engine: str = "vectorized",
                 rng: np.random.Generator | None = None):
        super().__init__()
        if positional_encoding not in ("learned", "time"):
            raise ValueError("positional_encoding must be 'learned' or 'time'")
        if engine not in _ENGINE_CHOICES:
            raise ValueError(f"engine must be one of {_ENGINE_CHOICES}")
        rng = rng if rng is not None else np.random.default_rng()
        self.embedding_dim = embedding_dim
        self.num_slots = num_slots
        self.positional_encoding = positional_encoding
        self.engine = engine

        if positional_encoding == "learned":
            self.position_embedding = Embedding(num_slots, embedding_dim, rng=rng)
            self.time_encoding = None
        else:
            self.position_embedding = None
            self.time_encoding = TimeEncode(embedding_dim)

        self.attention = MultiHeadAttention(
            query_dim=embedding_dim, key_dim=embedding_dim,
            num_heads=num_heads,
            head_dim=max(1, embedding_dim // num_heads),
            rng=rng,
        )
        self.layer_norm = LayerNorm(embedding_dim)
        self.dropout = Dropout(dropout, rng=rng)
        self.head = MLP(embedding_dim, hidden_dim, embedding_dim,
                        num_layers=2, dropout=dropout, rng=rng)

    # ------------------------------------------------------------------ #
    def encode_mailbox(self, mails: np.ndarray, mail_times: np.ndarray,
                       current_time: float) -> Tensor:
        """Add positional (or time) encodings to the raw mailbox matrix (Eq. 2)."""
        mails_tensor = Tensor(mails)
        if self.position_embedding is not None:
            positions = np.tile(np.arange(self.num_slots), (mails.shape[0], 1))
            return mails_tensor + self.position_embedding(positions)
        deltas = np.maximum(current_time - mail_times, 0.0)
        encoded = self.time_encoding(deltas.reshape(-1))
        return mails_tensor + encoded.reshape(mails.shape[0], self.num_slots, -1)

    # ------------------------------------------------------------------ #
    # Public batch entry point (engine dispatch)
    # ------------------------------------------------------------------ #
    def encode_many(self, last_embeddings: Tensor, mails: np.ndarray,
                    mail_times: np.ndarray, valid: np.ndarray,
                    current_time: float, engine: str | None = None) -> Tensor:
        """Compute z(t) for a batch of nodes from a dense mailbox stack.

        Parameters
        ----------
        last_embeddings:
            ``(N, d)`` tensor of z(t-), the embeddings from each node's
            previous interaction (zeros for never-seen nodes).
        mails, mail_times, valid:
            The dense ``(N, num_slots, d)`` mailbox stack with its timestamp
            and validity arrays, as returned by :meth:`Mailbox.read` or
            :meth:`Mailbox.gather_many`.
        current_time:
            Time of the current batch (used only by the time-encoding variant).
        engine:
            Optional override of the engine chosen at construction time
            (``"reference"`` or ``"vectorized"``).
        """
        engine = self.engine if engine is None else engine
        if engine not in _ENGINE_CHOICES:
            raise ValueError(f"engine must be one of {_ENGINE_CHOICES}")
        batch_size = last_embeddings.shape[0]
        if mails.shape[:2] != (batch_size, self.num_slots):
            raise ValueError(
                f"mailbox shape {mails.shape} does not match "
                f"(batch={batch_size}, slots={self.num_slots})"
            )
        if engine == "reference":
            return self._encode_reference(last_embeddings, mails, mail_times,
                                          valid, current_time)
        if (not is_grad_enabled() and self.position_embedding is not None
                and not (self.training and self.dropout.rate > 0.0)):
            return self._encode_inference(last_embeddings.data, mails, valid)
        return self._encode_vectorized(last_embeddings, mails, mail_times,
                                       valid, current_time)

    def forward(self, last_embeddings: Tensor, mails: np.ndarray,
                mail_times: np.ndarray, valid: np.ndarray,
                current_time: float) -> Tensor:
        """Alias of :meth:`encode_many` with the constructed engine."""
        return self.encode_many(last_embeddings, mails, mail_times, valid,
                                current_time)

    # ------------------------------------------------------------------ #
    # Engine implementations
    # ------------------------------------------------------------------ #
    def _encode_vectorized(self, last_embeddings: Tensor, mails: np.ndarray,
                           mail_times: np.ndarray, valid: np.ndarray,
                           current_time: float) -> Tensor:
        """Whole-batch array ops: one attention / LayerNorm / MLP call for N nodes."""
        batch_size = last_embeddings.shape[0]
        keyed_mailbox = self.encode_mailbox(mails, mail_times, current_time)
        query = last_embeddings.reshape(batch_size, 1, self.embedding_dim)
        attended = self.attention(query, keyed_mailbox, keyed_mailbox, mask=valid)
        attended = attended.reshape(batch_size, self.embedding_dim)
        # Nodes with an entirely empty mailbox should not receive an attention
        # contribution at all (there is nothing to attend over).
        has_any_mail = valid.any(axis=1).astype(np.float64)[:, None]
        attended = attended * Tensor(has_any_mail)
        residual = attended + last_embeddings
        normalised = self.layer_norm(residual)
        normalised = self.dropout(normalised)
        return self.head(normalised)

    def _encode_inference(self, last: np.ndarray, mails: np.ndarray,
                          valid: np.ndarray) -> Tensor:
        """:meth:`_encode_vectorized` on plain ndarrays (no ``Tensor`` nodes).

        Same operations in the same order on the same shapes, so outputs and
        ``last_attention_weights`` are bit-equal to the ``Tensor`` forward.
        """
        attention = self.attention
        heads, head_dim = attention.num_heads, attention.head_dim
        batch, slots, dim = len(last), self.num_slots, self.embedding_dim

        def split_heads(x: np.ndarray, length: int) -> np.ndarray:
            return x.reshape(batch, length, heads, head_dim).transpose(0, 2, 1, 3)

        keyed = mails + self.position_embedding.weight.data
        query = split_heads(last.reshape(batch, 1, dim) @ attention.w_query.data, 1)
        key = split_heads(keyed @ attention.w_key.data, slots)
        value = split_heads(keyed @ attention.w_value.data, slots)

        mask = np.asarray(valid, dtype=bool)[:, None, None, :]
        scores = (query @ key.transpose(0, 1, 3, 2)) * (1.0 / np.sqrt(head_dim))
        logits = scores + np.where(mask, 0.0, -1e30)
        exp = np.exp(logits + -logits.max(axis=-1, keepdims=True))
        weights = exp / exp.sum(axis=-1, keepdims=True)
        has_mail = mask.any(axis=-1, keepdims=True)
        if not has_mail.all():
            # Fully masked rows: uniform weights, as F.masked_softmax does.
            weights = weights + np.where(has_mail, 0.0, 1.0 / slots - weights)
        attention._last_attention = weights

        merged = (weights @ value).transpose(0, 2, 1, 3).reshape(batch, 1, heads * head_dim)
        attended = (merged @ attention.w_out.data).reshape(batch, dim)
        residual = attended * has_mail.reshape(batch, 1).astype(np.float64) + last

        centred = residual + -(residual.sum(axis=-1, keepdims=True) * (1.0 / dim))
        var = (centred * centred).sum(axis=-1, keepdims=True) * (1.0 / dim)
        normalised = centred / ((var + self.layer_norm.eps) ** 0.5)
        hidden = normalised * self.layer_norm.gain.data + self.layer_norm.bias.data
        return Tensor(self.head.infer(hidden))

    def _encode_reference(self, last_embeddings: Tensor, mails: np.ndarray,
                          mail_times: np.ndarray, valid: np.ndarray,
                          current_time: float) -> Tensor:
        """Per-node oracle loop: the batch is processed one node at a time.

        Every row runs the exact same module stack as the vectorized engine,
        so parameters, gradients and (with dropout inactive) outputs line up;
        the per-row attention weights are re-stitched so interpretability
        tooling sees the same ``(N, heads, 1, num_slots)`` array either way.
        """
        batch_size = last_embeddings.shape[0]
        if batch_size == 0:
            return self._encode_vectorized(last_embeddings, mails, mail_times,
                                           valid, current_time)
        outputs: list[Tensor] = []
        weights: list[np.ndarray] = []
        for row in range(batch_size):
            out = self._encode_vectorized(
                last_embeddings[row:row + 1],
                mails[row:row + 1], mail_times[row:row + 1],
                valid[row:row + 1], current_time,
            )
            outputs.append(out)
            weights.append(self.attention.last_attention_weights)
        self.attention._last_attention = np.concatenate(weights, axis=0)
        return F.concat(outputs, axis=0)

    @property
    def last_attention_weights(self) -> np.ndarray | None:
        """Mail attention weights of the last forward pass (for interpretability)."""
        return self.attention.last_attention_weights
