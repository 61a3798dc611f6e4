"""AnalyticsFeatureProvider wired into the serving loop.

Pins the FeatureProvider seam: features are consulted on the decision path
in every serving mode, view maintenance advances exactly once per served
prefix, and on the worker pool the lookups/advances surface as
``features.lookup`` / ``features.advance`` telemetry spans.
"""

import numpy as np
import pytest

from repro.analytics import (
    FEATURE_NAMES,
    AnalyticsFeatureProvider,
    recompute_velocity,
    recompute_window,
)
from repro.core import APAN, APANConfig
from repro.graph.batching import iterate_batches
from repro.serving import FeatureProvider, RuntimeConfig, ServingLoop


@pytest.fixture
def apan(tiny_dataset):
    return APAN(tiny_dataset.num_nodes, tiny_dataset.edge_feature_dim,
                APANConfig(num_mailbox_slots=4, num_neighbors=4,
                           mlp_hidden_dim=16, seed=0))


def make_provider(graph, top_k=5):
    span = float(graph.timestamps[-1] - graph.timestamps[0]) or 1.0
    return AnalyticsFeatureProvider(graph, window=span / 4, top_k=top_k)


def assert_provider_matches_oracle(provider, graph):
    hi = provider.folded
    window_oracle = recompute_window(
        graph.num_nodes, provider.windows.window, provider.windows.num_buckets,
        graph.src[:hi], graph.dst[:hi], graph.timestamps[:hi],
        graph.labels[:hi])
    assert np.array_equal(provider.windows.counts, window_oracle.counts)
    assert np.array_equal(provider.windows.label_sums,
                          window_oracle.label_sums)
    velocity_oracle = recompute_velocity(graph.num_nodes, graph.src[:hi],
                                         graph.dst[:hi], graph.timestamps[:hi])
    assert np.array_equal(provider.velocity.out_degree,
                          velocity_oracle.out_degree)
    assert np.array_equal(provider.velocity.delta_sum,
                          velocity_oracle.delta_sum)


class TestFeatureProviderBase:
    def test_defaults_are_noops(self):
        provider = FeatureProvider()
        assert provider.lookup(batch=None) is None
        assert provider.observe_scores(batch=None, scores=None) is None
        assert provider.advance(7) == 7

    def test_loop_without_provider_unchanged(self, apan, tiny_graph):
        report = ServingLoop(apan, tiny_graph,
                             batch_size=64).run(max_batches=2)
        assert report.num_decisions == 128


class TestLookupMatrix:
    def test_shape_and_names(self, tiny_graph):
        provider = make_provider(tiny_graph)
        provider.advance(100)
        batch = next(iter(iterate_batches(tiny_graph, 40)))
        features = provider.lookup(batch)
        assert features.shape == (40, len(FEATURE_NAMES))
        assert features.dtype == np.float64
        assert len(FEATURE_NAMES) == 8

    def test_features_describe_published_prefix_only(self, tiny_graph):
        fresh = make_provider(tiny_graph)  # nothing folded yet
        batch = next(iter(iterate_batches(tiny_graph, 40)))
        assert np.all(fresh.lookup(batch) == 0.0)


class TestInlineMode:
    def test_provider_advances_with_served_prefix(self, apan, tiny_graph):
        provider = make_provider(tiny_graph)
        loop = ServingLoop(apan, tiny_graph, batch_size=64,
                           feature_provider=provider)
        report = loop.run(max_batches=3, mode="inline")
        assert provider.folded == report.num_decisions == 192
        assert_provider_matches_oracle(provider, tiny_graph)

    def test_topk_tracks_scorer_outputs(self, apan, tiny_graph):
        provider = make_provider(tiny_graph, top_k=5)
        ServingLoop(apan, tiny_graph, batch_size=64,
                    feature_provider=provider).run(max_batches=3)
        top = provider.top_risks()
        assert 0 < len(top) <= 5
        scores = [score for _, score in top]
        assert scores == sorted(scores, reverse=True)
        assert provider.topk.num_updates == 192

    def test_compare_modes_replays_are_idempotent(self, apan, tiny_graph):
        provider = make_provider(tiny_graph)
        loop = ServingLoop(apan, tiny_graph, batch_size=64,
                           feature_provider=provider)
        for _ in range(2):
            reports = loop.compare_modes(max_batches=2, modes=("inline",))
            assert set(reports) == {"inline"}
        # The second replay re-serves the same prefix: every advance is a
        # no-op, no row folds twice.
        assert provider.folded == 128
        assert_provider_matches_oracle(provider, tiny_graph)

    def test_snapshot_is_json_friendly(self, apan, tiny_graph):
        import json

        provider = make_provider(tiny_graph)
        ServingLoop(apan, tiny_graph, batch_size=64,
                    feature_provider=provider).run(max_batches=2)
        snapshot = provider.snapshot()
        assert snapshot["rows_folded"] == 128
        assert snapshot["memory_bytes"] > 0
        json.dumps(snapshot)  # must round-trip for reports/examples


class TestWorkerPool:
    @pytest.mark.slow
    def test_lookups_and_advances_appear_as_spans(self, apan, tiny_graph):
        provider = make_provider(tiny_graph)
        loop = ServingLoop(apan, tiny_graph, batch_size=64,
                           feature_provider=provider)
        report = loop.run(
            max_batches=3, mode="worker-pool",
            runtime_config=RuntimeConfig(num_workers=1, telemetry=True))
        assert report.num_decisions == 192
        assert provider.folded == 192
        assert_provider_matches_oracle(provider, tiny_graph)

        telemetry = loop.last_telemetry
        assert telemetry is not None
        span_names = {event["name"] for event in telemetry.chrome_events()
                      if event.get("ph") == "X"}
        assert {"features.lookup", "features.advance"} <= span_names
        assert telemetry.histogram_summary("features.lookup").count == 3
        assert telemetry.histogram_summary("features.advance").count == 3
        # The run unbinds the provider from the (now closed) telemetry.
        assert provider.telemetry is not telemetry
