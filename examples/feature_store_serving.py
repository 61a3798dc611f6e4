"""Online feature store on the serving decision path.

The paper's deployment decides per transaction, before it completes, using
whatever state is already published.  This example walks the derived-analytics
layer (``src/repro/analytics/``, documented in ``docs/ANALYTICS.md``) through
that discipline:

1. builds an Alipay-like transaction stream and an ``AnalyticsFeatureProvider``
   over it (sliding-window activity + fraud rates, degree/burst velocity,
   top-k risk),
2. publishes a prefix with ``advance`` and looks up decision features for the
   *next* batch — the lookup only ever sees already-folded events,
3. serves the stream through ``ServingLoop`` with the provider on the
   decision path, and inspects the top-k risk view and the state snapshot,
4. re-serves on the multi-process worker pool with telemetry enabled and
   reads the ``features.lookup`` / ``features.advance`` span histograms.

Run with ``python examples/feature_store_serving.py``.
"""

from __future__ import annotations

from repro import APAN, APANConfig
from repro.analytics import FEATURE_NAMES, AnalyticsFeatureProvider
from repro.datasets import alipay_like
from repro.graph import iterate_batches
from repro.serving import RuntimeConfig, ServingLoop


def main() -> None:
    dataset = alipay_like(scale=0.001, seed=0, fraud_rate=0.03)
    graph = dataset.to_temporal_graph()
    span = float(graph.timestamps[-1] - graph.timestamps[0])
    window = span / 8 or 1.0
    print(f"transactions={graph.num_events}  accounts={graph.num_nodes}  "
          f"window={window:.0f} time units")

    # --- 1+2: publish a prefix, then ask for features for the next batch. ---
    provider = AnalyticsFeatureProvider(graph, window=window, top_k=5)
    provider.advance(200)          # folds events [0, 200) into every view
    batch = next(iterate_batches(graph, batch_size=50, start=200, stop=250))
    features = provider.lookup(batch)      # (50, 8) gathers, O(1) per row
    print(f"\nfolded {provider.folded} events; features for the next batch "
          f"describe only that published prefix:")
    for name, value in zip(FEATURE_NAMES, features[0]):
        print(f"  {name:>18s} = {value:.3f}")

    # --- 3: the provider on the serving decision path. ---------------------
    model = APAN(dataset.num_nodes, dataset.edge_feature_dim,
                 APANConfig(seed=0, dropout=0.0))
    provider = AnalyticsFeatureProvider(graph, window=window, top_k=5)
    loop = ServingLoop(model, graph, batch_size=50, feature_provider=provider)
    report = loop.run(max_batches=12)
    print(f"\nserved {provider.folded} events "
          f"(mean decision {report.mean_decision_ms:.2f} ms); "
          "riskiest accounts by latest scorer logit:")
    for node, score in provider.top_risks():
        print(f"  account {node:4d}  risk {score:+.3f}")
    snapshot = provider.snapshot()
    print(f"state: watermark t={snapshot['watermark_time']:.0f}, "
          f"{snapshot['memory_bytes'] / 1024:.0f} KiB across all views, "
          f"{snapshot['late_dropped']} late events dropped")

    # --- 4: the same seam on the worker pool, with telemetry. -------------
    model.reset_state()
    loop.feature_provider = AnalyticsFeatureProvider(graph, window=window,
                                                     top_k=5)
    loop.run(max_batches=12, mode="worker-pool",
             runtime_config=RuntimeConfig(num_workers=2, max_backlog=4,
                                          telemetry=True))
    telemetry = loop.last_telemetry
    print("\nfeature-store spans on the worker pool (ms):")
    for name in ("features.lookup", "features.advance"):
        hist = telemetry.histogram_summary(name)
        print(f"  {name:>16s}: n={hist.count:3d}  mean={hist.mean:.3f}  "
              f"p95={hist.p95:.3f}")


if __name__ == "__main__":
    main()
