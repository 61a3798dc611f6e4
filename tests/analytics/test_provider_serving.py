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
from repro.graph.batching import EventBatch, iterate_batches
from repro.serving import FeatureProvider, RuntimeConfig, ServingLoop
from repro.storage import EventStore


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

    @staticmethod
    def folded_provider():
        rng = np.random.default_rng(3)
        n = 300
        store = EventStore.from_arrays(
            rng.integers(0, 12, n), rng.integers(0, 12, n),
            np.sort(rng.uniform(0.0, 100.0, n)), np.zeros((n, 0)),
            labels=rng.integers(0, 2, n).astype(np.float64), num_nodes=12)
        provider = AnalyticsFeatureProvider(store, window=40.0, num_buckets=8)
        provider.advance(250)
        return provider

    @staticmethod
    def batch_of(src, dst):
        src = np.asarray(src, dtype=np.int64)
        return EventBatch(src=src, dst=np.asarray(dst, dtype=np.int64),
                          timestamps=np.full(len(src), 100.0),
                          edge_features=np.zeros((len(src), 0)),
                          labels=np.zeros(len(src)),
                          edge_ids=np.arange(len(src), dtype=np.int64))

    def test_each_column_is_the_view_query_it_names(self):
        provider = self.folded_provider()
        windows, velocity = provider.windows, provider.velocity
        # Node 3 repeats as a source; event 2 is a self-loop on node 5.
        src = np.array([3, 3, 5, 7, 0])
        dst = np.array([8, 1, 5, 3, 11])
        features = provider.lookup(self.batch_of(src, dst))
        expected = {
            "src_window_count": windows.count(src),
            "dst_window_count": windows.count(dst),
            "src_fraud_rate": windows.rate(src),
            "dst_fraud_rate": windows.rate(dst),
            "src_out_degree": velocity.out_degree[src].astype(np.float64),
            "dst_in_degree": velocity.in_degree[dst].astype(np.float64),
            "src_burst": velocity.burst_score(src),
            "dst_burst": velocity.burst_score(dst),
        }
        assert features.shape == (5, 8) and features.dtype == np.float64
        for column, name in enumerate(FEATURE_NAMES):
            assert expected[name].dtype == np.float64
            assert features[:, column].tobytes() == expected[name].tobytes(), name
            assert np.any(features[:, column] != 0.0), name  # not vacuous
        # The repeated source reads the same src-side columns twice.
        assert np.array_equal(features[0, 0::2], features[1, 0::2])

    def test_empty_batch_is_a_zero_row_matrix(self):
        features = self.folded_provider().lookup(self.batch_of([], []))
        assert features.shape == (0, len(FEATURE_NAMES))
        assert features.dtype == np.float64


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
