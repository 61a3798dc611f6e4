"""Explicit watermark policy: what happens to late events, by declaration.

Out-of-order streams force a choice the happy path never sees: when an
event arrives whose occurrence time is behind the watermark (the newest
occurrence time already processed), the system can *admit* it as if on
time, *fold* it only while it is no more than a bounded lateness behind, or
*drop* it outright — but whichever it does should be a declared policy, not
an accident of ring-buffer geometry.  :class:`WatermarkPolicy` is that
declaration, consumed by :class:`~repro.analytics.windows.WindowAggregator`
(and threaded through :class:`~repro.serving.service.ServingLoop` /
:class:`~repro.serving.runtime.RuntimeConfig` down to the
:class:`~repro.analytics.registry.ViewRegistry` fold path):

* ``admit`` — lateness never rejects an event; only the physical ring
  horizon of the aggregator can (the pre-policy behaviour, and the default).
* ``fold-late(L)`` — events up to ``allowed_lateness`` behind the watermark
  fold normally; anything later is dropped and counted.
* ``drop`` — strict watermark: any event behind it is dropped and counted.

Lateness is measured against the running *occurrence-time* prefix maximum
(event ``i`` is ``max(event_times[:i+1]) - event_times[i]`` late), which is
independent of how the stream is chunked into batches — so policy decisions
are bit-identical between incremental folds and one-shot recomputation, the
invariant ``tests/scenarios/test_watermark_policy.py`` pins.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["WatermarkPolicy"]

_KINDS = ("admit", "fold-late", "drop")


@dataclass(frozen=True)
class WatermarkPolicy:
    """Declared handling of events arriving behind the watermark.

    Build one with the factories: :meth:`admit`, :meth:`fold_late`,
    :meth:`drop`.  ``allowed_lateness`` is in the stream's own time units
    (see :class:`~repro.datasets.timedelta.TimeDelta`) and only meaningful
    for ``fold-late``.
    """

    kind: str = "admit"
    allowed_lateness: float = float("inf")

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"kind must be one of {_KINDS}, got {self.kind!r}")
        if self.allowed_lateness < 0:
            raise ValueError("allowed_lateness must be non-negative")

    # ------------------------------------------------------------------ #
    @classmethod
    def admit(cls) -> "WatermarkPolicy":
        """Admit every late event (ring horizon remains the only limit)."""
        return cls(kind="admit", allowed_lateness=float("inf"))

    @classmethod
    def fold_late(cls, allowed_lateness: float) -> "WatermarkPolicy":
        """Fold events up to ``allowed_lateness`` behind the watermark."""
        return cls(kind="fold-late", allowed_lateness=float(allowed_lateness))

    @classmethod
    def drop(cls) -> "WatermarkPolicy":
        """Drop (and count) every event behind the watermark."""
        return cls(kind="drop", allowed_lateness=0.0)

    # ------------------------------------------------------------------ #
    def admit_mask(self, lateness: np.ndarray) -> np.ndarray:
        """Boolean mask of events the policy admits, given their lateness."""
        lateness = np.asarray(lateness, dtype=np.float64)
        if self.kind == "admit":
            return np.ones(lateness.shape, dtype=bool)
        if self.kind == "drop":
            return lateness <= 0.0
        return lateness <= self.allowed_lateness

    def as_dict(self) -> dict:
        return {"kind": self.kind, "allowed_lateness": self.allowed_lateness}

    def __str__(self) -> str:
        if self.kind == "fold-late":
            return f"fold-late({self.allowed_lateness:g})"
        return self.kind
