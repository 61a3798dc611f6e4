"""Telemetry overhead benchmark: instrumented vs. null-sink serving throughput.

Observability is only free if it stays off the decision path.  This
benchmark streams the same workload through the real multi-process runtime
twice per repetition — once with ``RuntimeConfig(telemetry=False)`` (the
``NULL_TELEMETRY`` no-op sink) and once with full shared-memory telemetry,
alternating the order — and asserts the overhead is under
``OBS_BENCH_MAX_OVERHEAD_PCT`` (default 5%).

The guarded estimate is the **minimum over repetitions of the within-pair
wall-time ratio**: pairing adjacent runs cancels slow drift in machine load
(thermal, neighbours, page cache), and taking the minimum rejects transient
spikes that hit a single run.  A genuine regression — telemetry code that
always costs, say, 20% — inflates *every* pair's ratio and still fails the
gate; one noisy repetition does not.  The raw per-mode walls (and their
min) are recorded in ``BENCH_obs.json`` for eyeballing.

The runs happen in a fresh spawned subprocess, after one untimed pair of
both modes: the first run of a process pays its one-time costs (lazy
imports, first fork, first touch of the stream), which would land on one
mode only and make that pair's ratio — and so the minimum — say nothing
about telemetry; and a scorer carrying the heap of a whole test session
measures that heap, not the telemetry.

The instrumented run's Chrome trace is exported to ``TRACE_serving.json``
under ``benchmarks/out/`` (load it in ``chrome://tracing`` / Perfetto; uploaded as a CI
artifact), and the measured overhead goes to ``BENCH_obs.json``.
"""

from __future__ import annotations

import json
import multiprocessing as mp
import os
import time

import pytest

from repro.analytics import AnalyticsFeatureProvider
from repro.core import APAN, APANConfig
from repro.datasets import bipartite_interaction_dataset
from repro.serving import RuntimeConfig, ServingLoop

from .harness import OUT_DIR, write_bench_record

NUM_EVENTS = int(os.environ.get("OBS_BENCH_EVENTS", "24000"))
MAX_OVERHEAD_PCT = float(os.environ.get("OBS_BENCH_MAX_OVERHEAD_PCT", "5.0"))
BATCH_SIZE = 100
NUM_WORKERS = 2
MAX_BACKLOG = 4
REPS = int(os.environ.get("OBS_BENCH_REPS", "5"))

_RESULT_PATH = OUT_DIR / "BENCH_obs.json"
_TRACE_PATH = OUT_DIR / "TRACE_serving.json"


def _runtime_config(telemetry: bool) -> RuntimeConfig:
    return RuntimeConfig(num_workers=NUM_WORKERS, max_backlog=MAX_BACKLOG,
                         worker_nice=19, telemetry=telemetry)


def _measure(result_queue) -> None:
    """Runs in a fresh subprocess; reports every run's wall and one trace."""
    dataset = bipartite_interaction_dataset(
        name="obs-bench", num_users=NUM_EVENTS // 8, num_items=NUM_EVENTS // 16,
        num_events=NUM_EVENTS, edge_feature_dim=16, seed=23,
    )
    graph = dataset.to_temporal_graph()
    model = APAN(dataset.num_nodes, dataset.edge_feature_dim,
                 APANConfig(seed=0, dropout=0.0))
    loop = ServingLoop(model, graph, batch_size=BATCH_SIZE)

    window = float(graph.timestamps[-1] - graph.timestamps[0]) / 4 or 1.0

    walls = {False: [], True: []}
    telemetry = None
    # Rep -1 is the untimed warm-up pair.
    for rep in range(-1, REPS):
        # Alternate the order so drift (thermal, page cache, neighbours)
        # never consistently favours one mode.
        order = (False, True) if rep % 2 == 0 else (True, False)
        for instrumented in order:
            model.reset_state()
            # Fresh feature store per run: both modes pay the identical
            # lookup/advance work, and the instrumented run's trace shows
            # the features.* spans of a full fold, not idempotent no-ops.
            loop.feature_provider = AnalyticsFeatureProvider(
                graph, window=window)
            begin = time.perf_counter()
            loop.run(mode="worker-pool",
                     runtime_config=_runtime_config(instrumented))
            if rep >= 0:
                walls[instrumented].append(time.perf_counter() - begin)
            if instrumented:
                telemetry = loop.last_telemetry
    result_queue.put((walls, telemetry))


@pytest.fixture(scope="module")
def measurements():
    ctx = mp.get_context("spawn" if "spawn" in mp.get_all_start_methods()
                         else "fork")
    result_queue = ctx.Queue()
    proc = ctx.Process(target=_measure, args=(result_queue,))
    proc.start()
    try:
        out = result_queue.get(timeout=600)
    finally:
        proc.join(timeout=60)
    assert proc.exitcode == 0
    return out


def test_telemetry_overhead_under_budget(measurements):
    walls, _ = measurements
    null_wall = min(walls[False])
    instrumented_wall = min(walls[True])
    pair_ratios = [instr / null
                   for instr, null in zip(walls[True], walls[False])]
    overhead_pct = 100.0 * (min(pair_ratios) - 1.0)

    record = {
        "workload": {
            "num_events": NUM_EVENTS, "batch_size": BATCH_SIZE,
            "num_workers": NUM_WORKERS, "max_backlog": MAX_BACKLOG,
            "reps": REPS,
        },
        "overhead_pct": round(overhead_pct, 2),
        "max_overhead_pct": MAX_OVERHEAD_PCT,
        "pair_ratios": [round(r, 4) for r in pair_ratios],
        "null_sink_wall_s": round(null_wall, 3),
        "instrumented_wall_s": round(instrumented_wall, 3),
        "null_sink_walls_s": [round(w, 3) for w in walls[False]],
        "instrumented_walls_s": [round(w, 3) for w in walls[True]],
    }
    write_bench_record(_RESULT_PATH, record)
    print(f"\nnull sink:    best of {REPS} = {null_wall:.3f} s")
    print(f"instrumented: best of {REPS} = {instrumented_wall:.3f} s")
    print(f"min paired overhead over {REPS} reps: {overhead_pct:+.2f}%")

    assert overhead_pct < MAX_OVERHEAD_PCT, (
        f"telemetry overhead {overhead_pct:.2f}% exceeds the "
        f"{MAX_OVERHEAD_PCT:.1f}% budget in every one of {REPS} paired "
        f"repetitions (ratios: {[round(r, 3) for r in pair_ratios]})"
    )


def test_trace_export_is_valid_chrome_trace(measurements):
    _, telemetry = measurements
    assert telemetry is not None and telemetry.enabled
    _TRACE_PATH.parent.mkdir(parents=True, exist_ok=True)
    telemetry.write_chrome_trace(_TRACE_PATH, metadata={
        "workload": f"{NUM_EVENTS} events x {BATCH_SIZE} batch, "
                    f"{NUM_WORKERS} workers"})
    document = json.loads(_TRACE_PATH.read_text())
    events = document["traceEvents"]
    assert document["displayTimeUnit"] == "ms"
    span_names = {e["name"] for e in events if e.get("ph") == "X"}
    for required in ("scorer.decision", "scorer.submit", "queue.ride",
                     "worker.propagate", "worker.apply", "store.append",
                     "features.lookup", "features.advance"):
        assert required in span_names, f"missing {required} spans in trace"
    worker_pids = {e["pid"] for e in events
                   if e["name"] == "worker.propagate" and e.get("ph") == "X"}
    assert len(worker_pids) >= 2, "expected spans from >= 2 worker processes"
