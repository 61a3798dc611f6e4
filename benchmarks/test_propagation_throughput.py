"""Propagation engine throughput: vectorized vs. reference.

The vectorized engine is the tentpole of the "make the asynchronous half
fast" work: it replaces the per-event, per-neighbor Python routing loop with
whole-frontier array ops.  This benchmark streams a synthetic 10k-event
workload through both engines with the paper-default propagation settings
(2 hops, 10 neighbours, 10 slots, batch 200) as ``THROUGHPUT_PAIRS``
back-to-back reference/vectorized pairs, and asserts that the median paired
speedup stays above the floor future PRs must not regress below (a pair
shares the machine's load of the moment, so a slow spell cancels out).  The
measured numbers are written to ``BENCH_propagation.json`` under
``benchmarks/out/`` (see ``make bench``).

A second guard pins what that engine stands on: maintaining the temporal
adjacency index and sampling from it must cost the same per 200-event batch
however long the stream already is.  It replays routing's graph side — fold
the store prefix strictly older than the batch, then one ``sample_many`` over
the batch's endpoints — on a hub stream at a base length and at 10x, and
asserts the per-batch cost ratio stays under ``FOLD_RATIO_CEILING`` (2x;
an index that rewrites itself on every fold grows linearly and fails).  Its
record goes to the untracked ``benchmarks/out/`` only.

Environment knobs::

    FOLD_BENCH_EVENTS         base hub-stream length   (default 30_000)
    FOLD_BENCH_SCALE          long/base multiplier     (default 10)
    FOLD_BENCH_RATIO_CEILING  flatness guard           (default 2.0)
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro.core.mailbox import Mailbox
from repro.core.propagator import MailPropagator
from repro.graph.batching import EventBatch
from repro.graph.neighbor_sampler import make_sampler
from repro.scenarios import hub_nodes
from repro.storage import GraphView

from .harness import OUT_DIR, write_bench_record

NUM_EVENTS = 10_000
NUM_NODES = 2_000
FEATURE_DIM = 16
BATCH_SIZE = 200
# Measured on a 2-core x86 VM with sort-based routing and ρ: median paired
# speedup 11.0-12.5x (reference 8-11k events/s; the np.isin/np.unique routing
# before it measured ~7.5x).  The floor is ~0.6x the measured ratio: scheduler
# noise stays above it, a 2x slowdown of the fast path does not.
MIN_SPEEDUP = 7.0
THROUGHPUT_PAIRS = 5

FOLD_BASE_EVENTS = int(os.environ.get("FOLD_BENCH_EVENTS", 30_000))
FOLD_SCALE = int(os.environ.get("FOLD_BENCH_SCALE", 10))
FOLD_RATIO_CEILING = float(os.environ.get("FOLD_BENCH_RATIO_CEILING", 2.0))
FOLD_REPS = 3  # min-of-reps absorbs scheduler noise

_RESULT_PATH = OUT_DIR / "BENCH_propagation.json"
_FOLD_RESULT_PATH = OUT_DIR / "view_fold.json"


def synthetic_batches(seed: int = 0):
    rng = np.random.default_rng(seed)
    src = rng.integers(0, NUM_NODES, NUM_EVENTS).astype(np.int64)
    dst = rng.integers(0, NUM_NODES, NUM_EVENTS).astype(np.int64)
    timestamps = np.sort(rng.uniform(0.0, 10_000.0, NUM_EVENTS))
    features = rng.normal(size=(NUM_EVENTS, FEATURE_DIM))
    batches = []
    for begin in range(0, NUM_EVENTS, BATCH_SIZE):
        stop = begin + BATCH_SIZE
        batches.append(EventBatch(
            src=src[begin:stop], dst=dst[begin:stop],
            timestamps=timestamps[begin:stop],
            edge_features=features[begin:stop],
            labels=np.zeros(stop - begin),
            edge_ids=np.arange(begin, stop),
        ))
    return batches


def measure_events_per_second(engine: str) -> float:
    mailbox = Mailbox(NUM_NODES, 10, FEATURE_DIM)
    propagator = MailPropagator(mailbox, NUM_NODES, FEATURE_DIM, num_hops=2,
                                num_neighbors=10, seed=0, engine=engine)
    rng = np.random.default_rng(1)
    batches = synthetic_batches()
    embeddings = [rng.normal(size=(len(batch), FEATURE_DIM)) for batch in batches]
    begin = time.perf_counter()
    for batch, z in zip(batches, embeddings):
        propagator.propagate(batch, z, z)
    elapsed = time.perf_counter() - begin
    return NUM_EVENTS / elapsed


@pytest.fixture(scope="module")
def throughput():
    """Per-engine events/s of every back-to-back pair."""
    pairs = [(measure_events_per_second("reference"),
              measure_events_per_second("vectorized"))
             for _ in range(THROUGHPUT_PAIRS)]
    reference, vectorized = map(np.array, zip(*pairs))
    return reference, vectorized


def test_propagation_throughput(throughput):
    references, vectorizeds = throughput
    reference = float(np.median(references))
    vectorized = float(np.median(vectorizeds))
    speedup = float(np.median(vectorizeds / references))
    record = {
        "workload": {
            "num_events": NUM_EVENTS, "num_nodes": NUM_NODES,
            "feature_dim": FEATURE_DIM, "batch_size": BATCH_SIZE,
            "num_hops": 2, "num_neighbors": 10, "num_slots": 10,
        },
        "reference_events_per_sec": round(reference, 1),
        "vectorized_events_per_sec": round(vectorized, 1),
        "speedup": round(speedup, 2),
        "min_speedup_asserted": MIN_SPEEDUP,
        "pairs": THROUGHPUT_PAIRS,
        "paired_speedups": np.round(vectorizeds / references, 2).tolist(),
    }
    write_bench_record(_RESULT_PATH, record)
    print(f"\nreference:  {reference:10,.0f} events/s")
    print(f"vectorized: {vectorized:10,.0f} events/s  (median paired {speedup:.1f}x)")
    assert speedup >= MIN_SPEEDUP, (
        f"vectorized engine is only {speedup:.2f}x the reference "
        f"(floor {MIN_SPEEDUP}x) — the fast path has regressed"
    )


def _fold_and_sample_ms_per_batch(num_events: int) -> float:
    """Mean wall ms per batch of fold + ``sample_many`` over a hub stream."""
    dataset = hub_nodes(num_events=num_events, num_nodes=num_events // 10,
                        seed=0)[0]
    store = dataset.to_event_store()
    frontier = np.empty(2 * num_events, dtype=np.int64)
    frontier[0::2] = store.src
    frontier[1::2] = store.dst
    frontier_times = np.repeat(store.timestamps, 2)
    starts = range(0, num_events, BATCH_SIZE)
    best = np.inf
    for _ in range(FOLD_REPS):
        # What a serving worker holds: a range view advanced, per batch, to
        # the rows strictly older than the batch it is about to route.
        view = GraphView(store, 0, 0)
        sampler = make_sampler("recent", view, num_neighbors=10)
        begin = time.perf_counter()
        for lo in starts:
            view.extend_to(lo)
            window = slice(2 * lo, 2 * (lo + BATCH_SIZE))
            sampler.sample_many(frontier[window], frontier_times[window])
        best = min(best, time.perf_counter() - begin)
    return best * 1e3 / len(starts)


def test_fold_and_sample_cost_is_flat_in_stream_length():
    _fold_and_sample_ms_per_batch(10 * BATCH_SIZE)  # warmup, discarded
    long_ms = _fold_and_sample_ms_per_batch(FOLD_BASE_EVENTS * FOLD_SCALE)
    base_ms = _fold_and_sample_ms_per_batch(FOLD_BASE_EVENTS)
    ratio = long_ms / base_ms
    record = {
        "workload": {
            "stream": "hub_nodes", "base_events": FOLD_BASE_EVENTS,
            "long_events": FOLD_BASE_EVENTS * FOLD_SCALE, "scale": FOLD_SCALE,
            "batch_size": BATCH_SIZE, "num_neighbors": 10, "reps": FOLD_REPS,
        },
        "base_ms_per_batch": round(base_ms, 4),
        "long_ms_per_batch": round(long_ms, 4),
        "per_batch_ratio": round(ratio, 4),
        "ratio_ceiling": FOLD_RATIO_CEILING,
    }
    write_bench_record(_FOLD_RESULT_PATH, record)
    print(f"\nfold + sample_many: {base_ms:.3f} ms/batch at "
          f"{FOLD_BASE_EVENTS:,} events, {long_ms:.3f} ms/batch at "
          f"{FOLD_BASE_EVENTS * FOLD_SCALE:,} (ratio {ratio:.2f}, ceiling "
          f"{FOLD_RATIO_CEILING})")
    assert ratio <= FOLD_RATIO_CEILING, (
        f"fold + sample_many per batch grew {ratio:.2f}x from "
        f"{FOLD_BASE_EVENTS:,} to {FOLD_BASE_EVENTS * FOLD_SCALE:,} events "
        f"(ceiling {FOLD_RATIO_CEILING}x) — adjacency maintenance is no "
        f"longer independent of stream length"
    )
