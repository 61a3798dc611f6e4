"""Real-runtime serving benchmark: async decision latency vs. forced sync.

The paper's deployment claim (§3.1, Figure 2) is that putting mail
propagation on an asynchronous link takes it off the decision path.  The
simulated benchmark (``test_fig2_serving_simulation.py``) models that with a
deterministic queue; this one *runs* it, streaming a sustained-rate stream
through the real multi-process runtime (`repro.serving.runtime`) and through
the same model with propagation forced onto the critical path.  Both modes
use a zero-cost storage model so the comparison is pure measured wall time.

Asserted floor: the async runtime's p99 decision latency must beat the
synchronous p99 on the same stream (per mode, the run with the median p99 of
``REPS`` alternating runs, measured in a fresh subprocess).  Results (latency percentiles, mailbox
staleness, backlog high-water mark) are written to ``BENCH_serving.json`` at
the repo root so the perf trajectory is recorded alongside the code (see
``make bench-serving``).  ``SERVING_BENCH_EVENTS`` scales the stream
(default 10k events — the CI size; use 100k+ for a local soak).
"""

from __future__ import annotations

import multiprocessing as mp
import os
import time
from pathlib import Path

import pytest

from repro.core import APAN, APANConfig
from repro.datasets import bipartite_interaction_dataset
from repro.serving import DeploymentSimulator, RuntimeConfig, StorageLatencyModel

from .harness import write_bench_record

NUM_EVENTS = int(os.environ.get("SERVING_BENCH_EVENTS", "10000"))
BATCH_SIZE = 100
NUM_WORKERS = 2
MAX_BACKLOG = 4
REPS = 3

_RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_serving.json"


def _measure(result_queue) -> None:
    """Runs in a fresh subprocess; reports both modes' latency summaries."""
    dataset = bipartite_interaction_dataset(
        name="serving-bench", num_users=NUM_EVENTS // 8, num_items=NUM_EVENTS // 16,
        num_events=NUM_EVENTS, edge_feature_dim=16, seed=11,
    )
    graph = dataset.to_temporal_graph()
    model = APAN(dataset.num_nodes, dataset.edge_feature_dim,
                 APANConfig(seed=0, dropout=0.0))
    storage = StorageLatencyModel(graph_query_ms=0.0, kv_read_ms=0.0,
                                  jitter=0.0, seed=0)
    simulator = DeploymentSimulator(model, graph, storage=storage,
                                    batch_size=BATCH_SIZE)
    runs = {"synchronous": [], "asynchronous-real": []}
    for _ in range(REPS):
        for mode in runs:
            model.reset_state()
            begin = time.perf_counter()
            report = simulator.run(
                mode=mode,
                runtime_config=RuntimeConfig(num_workers=NUM_WORKERS,
                                             max_backlog=MAX_BACKLOG,
                                             worker_nice=19),
            )
            runs[mode].append((report, time.perf_counter() - begin))
    # One p99 is the second-worst of 100 batches: report, per mode, the run
    # whose p99 is the median of the reps.
    out = {}
    for mode, reps in runs.items():
        reps.sort(key=lambda rep: rep[0].p99_decision_ms)
        out[mode], out[mode + "/wall_s"] = reps[REPS // 2]
    result_queue.put(out)


@pytest.fixture(scope="module")
def reports():
    # spawn: the runtime forks its workers from the measuring process.  A
    # scorer that carries a whole tier-1 session's heap (~1.6 GB) measured an
    # async p99 of 3.1-3.2 ms on four runs of four, the first batches after
    # the fork among the worst; a fresh process measures 1.3-2.6 ms.
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


def test_async_runtime_beats_synchronous_p99(reports):
    sync = reports["synchronous"]
    real = reports["asynchronous-real"]
    record = {
        "workload": {
            "num_events": NUM_EVENTS, "batch_size": BATCH_SIZE,
            "num_workers": NUM_WORKERS, "max_backlog": MAX_BACKLOG,
            "reps": REPS,
        },
        "synchronous": {
            "p50_decision_ms": round(sync.p50_decision_ms, 3),
            "p95_decision_ms": round(sync.p95_decision_ms, 3),
            "p99_decision_ms": round(sync.p99_decision_ms, 3),
            "mean_decision_ms": round(sync.mean_decision_ms, 3),
            "wall_s": round(reports["synchronous/wall_s"], 2),
        },
        "asynchronous_real": {
            "p50_decision_ms": round(real.p50_decision_ms, 3),
            "p95_decision_ms": round(real.p95_decision_ms, 3),
            "p99_decision_ms": round(real.p99_decision_ms, 3),
            "mean_decision_ms": round(real.mean_decision_ms, 3),
            "mean_staleness_ms": round(real.mean_staleness_ms, 3),
            "max_staleness_ms": round(real.max_staleness_ms, 3),
            "max_backlog": real.max_backlog,
            "wall_s": round(reports["asynchronous-real/wall_s"], 2),
        },
        "p99_speedup": round(sync.p99_decision_ms / real.p99_decision_ms, 2),
    }
    write_bench_record(_RESULT_PATH, record)
    print(f"\nsynchronous:  p50={sync.p50_decision_ms:6.2f}  "
          f"p99={sync.p99_decision_ms:6.2f} ms")
    print(f"async (real): p50={real.p50_decision_ms:6.2f}  "
          f"p99={real.p99_decision_ms:6.2f} ms  "
          f"staleness mean/max={real.mean_staleness_ms:.1f}/"
          f"{real.max_staleness_ms:.1f} ms  backlog<={real.max_backlog}")

    assert real.max_backlog <= MAX_BACKLOG, (
        f"backlog {real.max_backlog} exceeded the configured bound {MAX_BACKLOG}"
    )
    assert real.p99_decision_ms < sync.p99_decision_ms, (
        f"async runtime p99 ({real.p99_decision_ms:.2f} ms) is not below the "
        f"synchronous p99 ({sync.p99_decision_ms:.2f} ms) — propagation has "
        f"leaked back onto the decision path"
    )
