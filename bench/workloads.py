"""The four workloads: what is offered, at what pace, to which deployment.

Stream length follows the run length: open-loop streams offer ``rate``
events per second for ``seconds`` seconds, closed-loop streams hold
``rate * seconds`` events and run until they are served.  ``--seed`` is the
generator seed; the program only ever sees the generated arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.scenarios import bursty_arrivals, hub_nodes, late_events

BATCH_SIZE = 200       # the paper's batch size; also the micro-batch cap
WARMUP_SHARE = 0.10    # served and counted, excluded from latency percentiles


def _late(n: int, nodes: int, seed: int):
    return late_events(num_events=n, num_nodes=nodes, seed=seed)[0]


BURST_BUCKETS = 128
FIRST_BURST_BUCKET = 20   # the warm-up events end before bucket 19
BURST_GAP = 3             # buckets between bursts, so each one drains alone


def _bursty(n: int, nodes: int, seed: int):
    """Four flash crowds, one in each quarter of the measured span.

    The generator places its bursts at random, and a burst inside the
    warm-up or two bursts back to back change the tail more than any code
    change would; streams are regenerated (seed + 1000, + 2000, ...) until
    the layout holds, so the stream is still a function of the seed alone.
    """
    quarter = (BURST_BUCKETS - FIRST_BURST_BUCKET) // 4
    while True:
        dataset = bursty_arrivals(
            num_events=n, num_nodes=nodes, peak_mean_ratio=8.0, num_bursts=4,
            num_buckets=BURST_BUCKETS, seed=seed)[0]
        width = dataset.metadata["scenario"]["invariants"]["bucket_width"]
        counts = np.bincount((dataset.timestamps / width).astype(np.int64),
                             minlength=BURST_BUCKETS + 1)[:BURST_BUCKETS]
        bursts = np.sort(np.argsort(counts)[-4:])
        first = FIRST_BURST_BUCKET + quarter * np.arange(4)
        if np.all((bursts >= first) & (bursts < first + quarter)) \
                and np.all(np.diff(bursts) >= BURST_GAP):
            return dataset
        seed += 1000


def _hubs(n: int, nodes: int, seed: int):
    return hub_nodes(num_events=n, num_nodes=nodes, seed=seed)[0]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    stream: Callable     # (num_events, num_nodes, seed) -> TemporalDataset
    pacing: str          # "open": arrival-driven; "closed": back to back
    rate: int            # offered events/s (open) or events per run second
    asynchronous: bool   # ServingRuntime workers vs. inline propagation
    num_workers: int = 0
    features: bool = False   # AnalyticsFeatureProvider on the decision path

    def num_events(self, seconds: float) -> int:
        return max(10 * BATCH_SIZE, int(round(self.rate * seconds)))

    def generate(self, seed: int, seconds: float):
        """The workload's stream for this seed and run length."""
        n = self.num_events(seconds)
        return self.stream(n, n // 10, seed)


WORKLOADS = (
    Workload(
        name="steady_async",
        why="open loop, 1000 ev/s late-event stream with the feature "
            "provider: ~1.6-event batches, so per-decision fixed cost "
            "dominates and propagation is bypassed",
        stream=_late, pacing="open", rate=1000, asynchronous=True,
        num_workers=1, features=True),
    Workload(
        name="bursty_async",
        why="open loop, mean 8000 ev/s with four 10x flash crowds far above "
            "capacity: backlog pins, submit blocks, worker speed lands on "
            "the decision tail",
        stream=_bursty, pacing="open", rate=8000, asynchronous=True,
        num_workers=1),
    Workload(
        name="hubs_inline",
        why="closed loop, hub stream, propagation inline in one process: "
            "the single-threaded baseline where sampler, routing, reduce, "
            "deliver and ingest do most of the work",
        stream=_hubs, pacing="closed", rate=20000, asynchronous=False),
    Workload(
        name="hubs_async",
        why="closed loop, the same hub stream on two workers: scorer "
            "blocked in backpressure, ordered apply, shared mailbox and "
            "store under concurrent use",
        stream=_hubs, pacing="closed", rate=20000, asynchronous=True,
        num_workers=2),
)

BY_NAME = {workload.name: workload for workload in WORKLOADS}
