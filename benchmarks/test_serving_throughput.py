"""Figure 2, measured: decision latency of the two serving deployments.

The paper's deployment claim (§3.1, Figure 2) is that putting mail
propagation on an asynchronous link takes it off the decision path, which
only a model like APAN can do.  This benchmark *runs* it: the same
sustained-rate stream is served by

* APAN ``"worker-pool"`` — mail propagation on the real multi-process
  runtime (`repro.serving.runtime`), off the decision path (Figure 2b);
* APAN ``"inline"`` — the ablation with its propagation forced onto the
  critical path (Figure 2a);
* TGN ``"inline"`` — its only deployment: memory update and neighbour
  queries on the critical path.

Every latency is measured wall time; nothing modelled is added.

Asserted floors (per row, the run with the median p99 of ``REPS`` alternating
runs, measured in a fresh subprocess): the p50 ordering APAN worker-pool <
APAN inline < TGN inline, the worker pool's p99 below APAN inline's, and the
propagation backlog within its configured bound.  Results (latency
percentiles, mailbox staleness, backlog high-water mark) are written to
``BENCH_serving.json`` under ``benchmarks/out/`` (see
``make bench-serving``).  ``SERVING_BENCH_EVENTS`` scales the stream (default 10k events — the CI size; use 100k+ for a local
soak).
"""

from __future__ import annotations

import multiprocessing as mp
import os
import time

import pytest

from repro.baselines import TGN
from repro.core import APAN, APANConfig
from repro.datasets import bipartite_interaction_dataset
from repro.serving import RuntimeConfig, ServingLoop

from .harness import OUT_DIR, write_bench_record

NUM_EVENTS = int(os.environ.get("SERVING_BENCH_EVENTS", "10000"))
BATCH_SIZE = 100
NUM_WORKERS = 2
MAX_BACKLOG = 4
REPS = 3

# Row name -> (model, serving mode).
ROWS = {
    "apan_worker_pool": ("APAN", "worker-pool"),
    "apan_inline": ("APAN", "inline"),
    "tgn_inline": ("TGN", "inline"),
}

_RESULT_PATH = OUT_DIR / "BENCH_serving.json"


def _measure(result_queue) -> None:
    """Runs in a fresh subprocess; reports every row's latency summary."""
    dataset = bipartite_interaction_dataset(
        name="serving-bench", num_users=NUM_EVENTS // 8, num_items=NUM_EVENTS // 16,
        num_events=NUM_EVENTS, edge_feature_dim=16, seed=11,
    )
    graph = dataset.to_temporal_graph()
    models = {
        "APAN": APAN(dataset.num_nodes, dataset.edge_feature_dim,
                     APANConfig(seed=0, dropout=0.0)),
        "TGN": TGN(dataset.num_nodes, dataset.edge_feature_dim,
                   num_layers=1, num_neighbors=10, seed=0),
    }
    loops = {name: ServingLoop(model, graph, batch_size=BATCH_SIZE)
             for name, model in models.items()}
    runs = {row: [] for row in ROWS}
    for _ in range(REPS):
        for row, (model_name, mode) in ROWS.items():
            models[model_name].reset_state()
            begin = time.perf_counter()
            report = loops[model_name].run(
                mode=mode,
                runtime_config=RuntimeConfig(num_workers=NUM_WORKERS,
                                             max_backlog=MAX_BACKLOG,
                                             worker_nice=19),
            )
            runs[row].append((report, time.perf_counter() - begin))
    # One p99 is the second-worst of 100 batches: report, per row, the run
    # whose p99 is the median of the reps.
    out = {}
    for row, reps in runs.items():
        reps.sort(key=lambda rep: rep[0].p99_decision_ms)
        out[row], out[row + "/wall_s"] = reps[REPS // 2]
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


def _row_record(report, wall_s: float) -> dict:
    return {
        "p50_decision_ms": round(report.p50_decision_ms, 3),
        "p95_decision_ms": round(report.p95_decision_ms, 3),
        "p99_decision_ms": round(report.p99_decision_ms, 3),
        "mean_decision_ms": round(report.mean_decision_ms, 3),
        "mean_staleness_ms": round(report.mean_staleness_ms, 3),
        "max_staleness_ms": round(report.max_staleness_ms, 3),
        "max_backlog": report.max_backlog,
        "wall_s": round(wall_s, 2),
    }


def test_fig2_measured_decision_latency(reports):
    pool = reports["apan_worker_pool"]
    inline = reports["apan_inline"]
    tgn = reports["tgn_inline"]
    record = {
        "workload": {
            "num_events": NUM_EVENTS, "batch_size": BATCH_SIZE,
            "num_workers": NUM_WORKERS, "max_backlog": MAX_BACKLOG,
            "reps": REPS,
        },
        **{row: _row_record(reports[row], reports[row + "/wall_s"])
           for row in ROWS},
        "p99_speedup": round(inline.p99_decision_ms / pool.p99_decision_ms, 2),
    }
    write_bench_record(_RESULT_PATH, record)
    for row in ROWS:
        report = reports[row]
        print(f"\n{row:<17} p50={report.p50_decision_ms:6.2f}  "
              f"p99={report.p99_decision_ms:6.2f} ms", end="")
    print(f"\nworker-pool staleness mean/max={pool.mean_staleness_ms:.1f}/"
          f"{pool.max_staleness_ms:.1f} ms  backlog<={pool.max_backlog}")

    assert pool.p50_decision_ms < inline.p50_decision_ms < tgn.p50_decision_ms, (
        f"Figure 2 p50 ordering broken: APAN worker-pool "
        f"{pool.p50_decision_ms:.2f} ms, APAN inline "
        f"{inline.p50_decision_ms:.2f} ms, TGN inline {tgn.p50_decision_ms:.2f} ms"
    )


def test_worker_pool_beats_inline_p99(reports):
    pool = reports["apan_worker_pool"]
    inline = reports["apan_inline"]
    assert pool.p99_decision_ms < inline.p99_decision_ms, (
        f"worker-pool p99 ({pool.p99_decision_ms:.2f} ms) is not below the "
        f"inline p99 ({inline.p99_decision_ms:.2f} ms) — propagation has "
        f"leaked back onto the decision path"
    )


def test_worker_pool_backlog_within_bound(reports):
    pool = reports["apan_worker_pool"]
    assert pool.max_backlog <= MAX_BACKLOG, (
        f"backlog {pool.max_backlog} exceeded the configured bound {MAX_BACKLOG}"
    )
