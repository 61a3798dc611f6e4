"""Time-varying negative sampling for temporal link prediction (paper Eq. 7).

For every observed interaction ``(v_i, v_j, t)`` we sample a negative
destination ``v_n ~ P_n(v)``.  Following the paper's discussion, the sampler:

* only draws nodes that have already appeared in the stream before ``t``
  ("nodes that have never interacted cannot be sampled as negative data"),
* avoids sampling the true destination of the event,
* optionally avoids recent historical partners of the source (so a stale
  positive is not used as a negative).
"""

from __future__ import annotations

import numpy as np

from ..graph.batching import EventBatch
from ..storage.graph_view import GraphView

__all__ = ["TimeAwareNegativeSampler", "RandomDestinationSampler"]


class RandomDestinationSampler:
    """Baseline sampler: uniform over the destination-node universe.

    Used by the static baselines, which do not track which nodes have become
    active over time.
    """

    def __init__(self, destinations: np.ndarray, seed: int | None = None):
        destinations = np.unique(np.asarray(destinations, dtype=np.int64))
        if len(destinations) == 0:
            raise ValueError("destination pool is empty")
        self.destinations = destinations
        self._rng = np.random.default_rng(seed)

    def sample(self, batch: EventBatch) -> np.ndarray:
        choices = self._rng.choice(self.destinations, size=len(batch), replace=True)
        # Resample collisions with the true destination once; residual
        # collisions are rare and harmless.
        collisions = choices == batch.dst
        if collisions.any():
            choices[collisions] = self._rng.choice(
                self.destinations, size=int(collisions.sum()), replace=True
            )
        return choices


class TimeAwareNegativeSampler:
    """Negative sampler whose candidate pool grows as nodes become active."""

    def __init__(self, graph: GraphView, bipartite: bool = True,
                 avoid_recent_partners: bool = True, seed: int | None = None):
        self.graph = graph
        self.bipartite = bipartite
        self.avoid_recent_partners = avoid_recent_partners
        self._rng = np.random.default_rng(seed)
        # Active destinations and the stream position up to which we've scanned.
        self._active: list[int] = []
        self._active_set: set[int] = set()
        self._cursor = 0
        # Recent partner memory: node -> set of its most recent partners.
        self._recent_partners: dict[int, set[int]] = {}

    def _advance(self, until_time: float) -> None:
        """Mark destinations of events before ``until_time`` as active."""
        timestamps = self.graph.timestamps
        dst = self.graph.dst
        src = self.graph.src
        while self._cursor < self.graph.num_events and timestamps[self._cursor] < until_time:
            destination = int(dst[self._cursor])
            source = int(src[self._cursor])
            if destination not in self._active_set:
                self._active_set.add(destination)
                self._active.append(destination)
            if not self.bipartite and source not in self._active_set:
                self._active_set.add(source)
                self._active.append(source)
            if self.avoid_recent_partners:
                partners = self._recent_partners.setdefault(source, set())
                partners.add(destination)
                if len(partners) > 32:
                    partners.pop()
            self._cursor += 1

    def reset(self) -> None:
        """Forget the activation state (e.g. between epochs over the same stream)."""
        self._active = []
        self._active_set = set()
        self._cursor = 0
        self._recent_partners = {}

    def sample(self, batch: EventBatch) -> np.ndarray:
        """Sample one negative destination per event in ``batch``."""
        self._advance(batch.start_time)
        if not self._active:
            # Stream start: fall back to the batch's own destinations shuffled.
            pool = np.unique(batch.dst)
        else:
            pool = np.asarray(self._active, dtype=np.int64)
        negatives = self._rng.choice(pool, size=len(batch), replace=True)
        for index, (source, destination) in enumerate(zip(batch.src, batch.dst)):
            forbidden = {int(destination)}
            if self.avoid_recent_partners:
                forbidden |= self._recent_partners.get(int(source), set())
            if int(negatives[index]) not in forbidden:
                continue
            # Retry a few times; fall back to any non-true-destination node.
            for _ in range(10):
                candidate = int(self._rng.choice(pool))
                if candidate not in forbidden:
                    negatives[index] = candidate
                    break
            else:
                candidate = int(self._rng.choice(pool))
                if candidate == int(destination):
                    candidate = int(pool[(np.where(pool == candidate)[0][0] + 1) % len(pool)])
                negatives[index] = candidate
        return negatives.astype(np.int64)
