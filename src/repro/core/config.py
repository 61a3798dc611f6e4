"""Configuration dataclass for APAN (paper §4.4 hyper-parameters as defaults)."""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, asdict

__all__ = ["APANConfig"]


@dataclass
class APANConfig:
    """All APAN hyper-parameters.

    The defaults are the values the paper reports in §4.4: Adam with learning
    rate 1e-4, batch size 200, dropout 0.1, two attention heads, two message
    passing (propagation) hops, two-layer MLPs with hidden size 80, and 10
    mailbox slots / 10 sampled neighbours.  The node embedding dimension is
    tied to the edge feature dimension (so it is not configurable here).
    """

    # Mailbox / propagation
    num_mailbox_slots: int = 10
    num_neighbors: int = 10
    num_hops: int = 2
    sampling: str = "recent"
    mail_phi: str = "sum"
    mail_rho: str = "mean"
    mail_passing: str = "identity"
    mailbox_update: str = "fifo"

    # Encoder / decoder
    num_attention_heads: int = 2
    mlp_hidden_dim: int = 80
    dropout: float = 0.1
    positional_encoding: str = "learned"

    # Optimisation
    learning_rate: float = 1e-4
    batch_size: int = 200
    max_epochs: int = 10
    early_stopping_patience: int = 5
    gradient_clip: float = 5.0

    # Reproducibility
    seed: int = 0

    def validate(self) -> "APANConfig":
        """Raise ``ValueError`` for out-of-range settings; return self when valid."""
        if self.num_mailbox_slots <= 0:
            raise ValueError("num_mailbox_slots must be positive")
        if self.num_neighbors <= 0:
            raise ValueError("num_neighbors must be positive")
        if self.num_hops < 1:
            raise ValueError("num_hops must be at least 1")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must be in [0, 1)")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.batch_size <= 0:
            raise ValueError("batch_size must be positive")
        if self.num_attention_heads <= 0:
            raise ValueError("num_attention_heads must be positive")
        return self

    def as_dict(self) -> dict:
        return asdict(self)

    def propagator_kwargs(self) -> dict:
        """Constructor kwargs for :class:`repro.core.propagator.MailPropagator`.

        One place maps config fields to propagator arguments so every
        consumer — the model, and each worker process of the serving runtime
        rebuilding an identical propagator from a pickled config — agrees on
        the mapping.
        """
        return {
            "num_hops": self.num_hops,
            "num_neighbors": self.num_neighbors,
            "sampling": self.sampling,
            "phi": self.mail_phi,
            "rho": self.mail_rho,
            "mail_passing": self.mail_passing,
            "seed": self.seed,
        }

    def replace(self, **overrides) -> "APANConfig":
        """Return a copy with the given fields replaced (``TypeError`` for an
        unknown field)."""
        return dataclasses.replace(self, **overrides)
