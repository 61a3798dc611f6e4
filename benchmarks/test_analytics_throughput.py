"""Analytics maintenance is O(1) per event — flat in stream length.

The tentpole claim of ``repro.analytics``: incremental view maintenance
costs the same per event no matter how long the stream has been running.
The ring-of-buckets window clears at most ``num_buckets`` columns per
watermark advance (never walks stored events) and the velocity tracker's
fold is O(batch log batch); neither touches O(history) state.

This benchmark folds the same constant-rate workload at a base length and
at 10x the length (10x the events *and* 10x the time span, so the window
keeps expiring — the adversarial case for naive window implementations,
which must walk and evict every stored event) and asserts the measured
**per-event** maintenance cost at 10x stays within ``RATIO_CEILING`` (2x
by default) of the base run — flat, not linear.  Results land in
``BENCH_analytics.json`` under ``benchmarks/out/`` (see
``make bench-analytics``);
CI uploads the JSON and fails on a ratio regression.

Environment knobs::

    ANALYTICS_BENCH_EVENTS         base stream length   (default 20_000)
    ANALYTICS_BENCH_SCALE          long/base multiplier (default 10)
    ANALYTICS_BENCH_RATIO_CEILING  flatness guard       (default 2.0)
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro.analytics import (
    AnalyticsFeatureProvider,
    DegreeVelocity,
    TopKView,
    ViewRegistry,
    WindowAggregator,
)

from .harness import OUT_DIR, write_bench_record

BASE_EVENTS = int(os.environ.get("ANALYTICS_BENCH_EVENTS", 20_000))
SCALE = int(os.environ.get("ANALYTICS_BENCH_SCALE", 10))
RATIO_CEILING = float(os.environ.get("ANALYTICS_BENCH_RATIO_CEILING", 2.0))

NUM_NODES = 10_000
ADVANCE_CHUNK = 1_000     # events folded per ViewRegistry.advance
EVENT_RATE = 100.0        # events per time unit (constant: 10x events = 10x span)
WINDOW = 50.0             # time units -> 5_000 in-window events at this rate
NUM_BUCKETS = 16
REPS = 5                  # min-of-reps absorbs scheduler noise

_RESULT_PATH = OUT_DIR / "BENCH_analytics.json"


class _ArrayStore:
    """Pre-generated columns with the store duck type (no storage overhead)."""

    def __init__(self, num_events: int, seed: int = 0):
        rng = np.random.default_rng(seed)
        self.src = rng.integers(0, NUM_NODES, num_events)
        self.dst = rng.integers(0, NUM_NODES, num_events)
        self.timestamps = np.arange(num_events, dtype=np.float64) / EVENT_RATE
        self.labels = (rng.random(num_events) < 0.05).astype(np.float64)
        self.num_nodes = NUM_NODES

    @property
    def num_events(self) -> int:
        return len(self.src)


def _maintenance_seconds(store: _ArrayStore) -> float:
    """Wall seconds to fold the whole stream through a fresh registry."""
    registry = ViewRegistry(store)
    registry.register("window", WindowAggregator(NUM_NODES, WINDOW,
                                                 num_buckets=NUM_BUCKETS))
    registry.register("velocity", DegreeVelocity(NUM_NODES))
    begin = time.perf_counter()
    for hi in range(ADVANCE_CHUNK, store.num_events + 1, ADVANCE_CHUNK):
        registry.advance(hi)
    elapsed = time.perf_counter() - begin
    assert registry.folded == store.num_events
    return elapsed


def _best_per_event_us(store: _ArrayStore) -> float:
    best = min(_maintenance_seconds(store) for _ in range(REPS))
    return best * 1e6 / store.num_events


def _lookup_rows_per_sec(store: _ArrayStore) -> float:
    provider = AnalyticsFeatureProvider(store, window=WINDOW,
                                        num_buckets=NUM_BUCKETS)
    provider.advance()

    class _Batch:  # the duck-typed slice lookup() reads
        src = store.src[:200]
        dst = store.dst[:200]

        def __len__(self):
            return 200

    batch = _Batch()
    queries = 200
    begin = time.perf_counter()
    for _ in range(queries):
        provider.lookup(batch)
    elapsed = time.perf_counter() - begin
    return queries * len(batch) / elapsed


def _topk_updates_per_sec(store: _ArrayStore) -> float:
    view = TopKView(10)
    scores = np.asarray(store.labels) + np.arange(store.num_events) * 1e-9
    begin = time.perf_counter()
    for lo in range(0, store.num_events, ADVANCE_CHUNK):
        view.update(store.dst[lo:lo + ADVANCE_CHUNK],
                    scores[lo:lo + ADVANCE_CHUNK])
    view.top()
    elapsed = time.perf_counter() - begin
    return store.num_events / elapsed


def test_analytics_maintenance_is_flat_in_stream_length():
    base_store = _ArrayStore(BASE_EVENTS)
    long_store = _ArrayStore(BASE_EVENTS * SCALE)

    # Interleave-friendly order: measure the long run first so any one-time
    # warmup (allocator growth, numpy dispatch) is not charged to it alone.
    _maintenance_seconds(base_store)  # warmup, discarded
    long_per_event_us = _best_per_event_us(long_store)
    base_per_event_us = _best_per_event_us(base_store)
    ratio = long_per_event_us / base_per_event_us

    lookup_rows = _lookup_rows_per_sec(base_store)
    topk_rate = _topk_updates_per_sec(base_store)

    registry = ViewRegistry(base_store)
    registry.register("window", WindowAggregator(NUM_NODES, WINDOW,
                                                 num_buckets=NUM_BUCKETS))
    registry.register("velocity", DegreeVelocity(NUM_NODES))
    registry.advance()

    record = {
        "workload": {
            "num_nodes": NUM_NODES, "base_events": BASE_EVENTS,
            "long_events": BASE_EVENTS * SCALE, "scale": SCALE,
            "advance_chunk": ADVANCE_CHUNK, "event_rate": EVENT_RATE,
            "window": WINDOW, "num_buckets": NUM_BUCKETS, "reps": REPS,
        },
        "base_per_event_us": round(base_per_event_us, 4),
        "long_per_event_us": round(long_per_event_us, 4),
        "per_event_ratio": round(ratio, 4),
        "ratio_ceiling": RATIO_CEILING,
        "lookup_rows_per_sec": round(lookup_rows, 1),
        "topk_updates_per_sec": round(topk_rate, 1),
        "view_state_bytes": registry.memory_footprint_bytes(),
    }
    write_bench_record(_RESULT_PATH, record)
    print(f"\nmaintenance: {base_per_event_us:.3f} us/event at {BASE_EVENTS:,} "
          f"events, {long_per_event_us:.3f} us/event at "
          f"{BASE_EVENTS * SCALE:,} (ratio {ratio:.2f}, ceiling {RATIO_CEILING})")
    print(f"lookup: {lookup_rows:12,.0f} feature rows/s")
    print(f"top-k:  {topk_rate:12,.0f} score updates/s")

    # The O(1)-maintenance guard: 10x the stream, same per-event cost.
    assert ratio <= RATIO_CEILING, (
        f"per-event maintenance cost grew {ratio:.2f}x from {BASE_EVENTS:,} "
        f"to {BASE_EVENTS * SCALE:,} events (ceiling {RATIO_CEILING}x) — "
        f"view maintenance is no longer O(1) per event"
    )
