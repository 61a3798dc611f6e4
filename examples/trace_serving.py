"""Trace a serving run: export every pipeline span to Chrome trace JSON.

Streams a synthetic interaction workload through the real multi-process
serving runtime with telemetry enabled, then exports the run to
``trace.json`` — load it in ``chrome://tracing`` or https://ui.perfetto.dev
to see the scorer's decision path, each batch's ride through the shared-memory
hand-off ring, and the worker processes propagating, waiting for their turn
and applying mail, all on one timeline.

Also prints the shared-memory metrics the run accumulated: pipeline
counters, the final per-worker watermarks, and latency histograms for every
instrumented stage.

Run with ``python examples/trace_serving.py`` (or ``make trace``).
"""

from __future__ import annotations

from pathlib import Path

from repro import APAN, APANConfig
from repro.datasets import bipartite_interaction_dataset
from repro.obs import run_metadata
from repro.serving import RuntimeConfig, ServingLoop
from repro.utils import format_table

NUM_EVENTS = 6000
BATCH_SIZE = 100
NUM_WORKERS = 2
TRACE_PATH = Path(__file__).resolve().parent.parent / "trace.json"


def main() -> None:
    dataset = bipartite_interaction_dataset(
        name="trace-demo", num_users=NUM_EVENTS // 8,
        num_items=NUM_EVENTS // 16, num_events=NUM_EVENTS,
        edge_feature_dim=16, seed=23)
    graph = dataset.to_temporal_graph()
    model = APAN(dataset.num_nodes, dataset.edge_feature_dim,
                 APANConfig(seed=0, dropout=0.0))
    loop = ServingLoop(model, graph, batch_size=BATCH_SIZE)

    print(f"streaming {NUM_EVENTS} events x {BATCH_SIZE}/batch through "
          f"{NUM_WORKERS} worker processes with telemetry on ...")
    report = loop.run(
        mode="worker-pool",
        runtime_config=RuntimeConfig(num_workers=NUM_WORKERS, max_backlog=8,
                                     telemetry=True))
    telemetry = loop.last_telemetry
    assert telemetry is not None

    snapshot = telemetry.snapshot()
    print("\npipeline counters:")
    for name, value in sorted(snapshot["counters"].items()):
        print(f"  {name:<22} {value:>10.0f}")

    print("\nstage latency histograms (ms):")
    rows = [{"span": name, **summary.as_dict(round_to=3)}
            for name, summary in sorted(snapshot["histograms"].items())
            if summary.count]
    print(format_table(rows, columns=["span", "count", "mean", "p50",
                                      "p95", "p99", "max"]))

    telemetry.write_chrome_trace(TRACE_PATH, metadata=run_metadata())
    num_events = len(telemetry.chrome_events())
    print(f"\ndecision latency p99: {report.p99_decision_ms:.3f} ms "
          f"(mean staleness {report.mean_staleness_ms:.1f} ms)")
    print(f"wrote {num_events} trace events to {TRACE_PATH}")
    print("open chrome://tracing or https://ui.perfetto.dev and load it")


if __name__ == "__main__":
    main()
