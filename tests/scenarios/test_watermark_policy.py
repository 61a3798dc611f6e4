"""Watermark-policy regression suite: accounting agrees with the declaration.

Three layers, bottom-up:

* policy unit semantics (``admit`` / ``fold-late`` / ``drop`` masks);
* the :class:`WindowAggregator` under policies: chunked folds equal the
  one-shot recompute oracle bit for bit on out-of-order streams (hypothesis),
  and the ``late_admitted``/``late_dropped`` counters match the counts
  computable from the stream's own lateness profile;
* the serving path end-to-end: a :class:`ServingLoop` over the
  ``late_events`` scenario reports exactly the accounting predicted from
  ``TemporalDataset.lateness()`` + the policy, ``inline`` and (slow) on the
  multi-process worker pool.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analytics import (
    AnalyticsFeatureProvider,
    WatermarkPolicy,
    WindowAggregator,
    recompute_window,
)
from repro.core import APAN, APANConfig
from repro.scenarios import late_events
from repro.serving import RuntimeConfig, ServingLoop


def expected_accounting(dataset, policy):
    """(late_admitted, late_dropped) predicted from the stream + policy.

    Valid when the aggregator's window covers the whole stream, so the ring
    horizon never rejects anything and the policy is the only gatekeeper.
    """
    lateness = dataset.lateness()
    admitted = policy.admit_mask(lateness)
    return int((admitted & (lateness > 0)).sum()), int((~admitted).sum())


def make_policy_provider(graph, dataset, policy):
    # Window spans the whole stream: horizon drops impossible, the policy
    # alone decides (see expected_accounting).
    span = float(graph.timestamps[-1] - graph.timestamps[0]) + 1.0
    return AnalyticsFeatureProvider(graph, window=4 * span,
                                    watermark_policy=policy,
                                    event_times=dataset.event_times)


class TestPolicySemantics:
    def test_admit_admits_everything(self):
        lateness = np.array([0.0, 5.0, 1e9])
        assert WatermarkPolicy.admit().admit_mask(lateness).all()

    def test_drop_rejects_any_lateness(self):
        mask = WatermarkPolicy.drop().admit_mask(np.array([0.0, 1e-9, 3.0]))
        assert mask.tolist() == [True, False, False]

    def test_fold_late_bounds_lateness(self):
        mask = WatermarkPolicy.fold_late(2.0).admit_mask(
            np.array([0.0, 2.0, 2.5]))
        assert mask.tolist() == [True, True, False]

    def test_validation_and_str(self):
        with pytest.raises(ValueError):
            WatermarkPolicy(kind="defenestrate")
        with pytest.raises(ValueError):
            WatermarkPolicy.fold_late(-1.0)
        assert str(WatermarkPolicy.admit()) == "admit"
        assert str(WatermarkPolicy.drop()) == "drop"
        assert str(WatermarkPolicy.fold_late(100.0)) == "fold-late(100)"

    def test_watermark_advances_even_for_dropped_events(self):
        view = WindowAggregator(4, window=100.0, num_buckets=4,
                                policy=WatermarkPolicy.drop())
        view.fold([0], [1], [50.0], [0.0])
        view.fold([0], [1], [10.0], [0.0])  # late: dropped...
        assert view.late_dropped == 1
        assert view.watermark_time == 50.0  # ...but observed


POLICIES = [WatermarkPolicy.admit(), WatermarkPolicy.drop(),
            WatermarkPolicy.fold_late(5.0), WatermarkPolicy.fold_late(0.0)]


@st.composite
def disordered_streams(draw):
    """Out-of-order event-time streams with arbitrary fold boundaries."""
    n = draw(st.integers(min_value=1, max_value=50))
    nodes = st.integers(min_value=0, max_value=9)
    src = np.array(draw(st.lists(nodes, min_size=n, max_size=n)), dtype=np.int64)
    dst = np.array(draw(st.lists(nodes, min_size=n, max_size=n)), dtype=np.int64)
    times = st.floats(min_value=0.0, max_value=40.0,
                      allow_nan=False, allow_infinity=False)
    timestamps = np.array(draw(st.lists(times, min_size=n, max_size=n)),
                          dtype=np.float64)
    labels = np.array(draw(st.lists(st.sampled_from([0.0, 1.0]),
                                    min_size=n, max_size=n)), dtype=np.float64)
    cuts = draw(st.lists(st.integers(min_value=0, max_value=n), max_size=5))
    return src, dst, timestamps, labels, sorted(set(cuts) | {n})


class TestChunkingInvariance:
    @settings(max_examples=60, deadline=None)
    @given(stream=disordered_streams(), policy=st.sampled_from(POLICIES))
    def test_chunked_equals_one_shot_under_any_policy(self, stream, policy):
        src, dst, timestamps, labels, boundaries = stream
        view = WindowAggregator(10, window=20.0, num_buckets=5, policy=policy)
        lo = 0
        for hi in boundaries:
            view.fold(src[lo:hi], dst[lo:hi], timestamps[lo:hi], labels[lo:hi])
            lo = hi
        oracle = recompute_window(10, 20.0, 5, src, dst, timestamps, labels,
                                  policy=policy)
        # Final view state is chunking-invariant even with the ring geometry
        # active (fold-then-expire vs never-fold leave the same state); the
        # *counters* are only chunking-invariant when the policy alone
        # decides, which the wide-window property below pins.
        assert np.array_equal(view.counts, oracle.counts)
        assert np.array_equal(view.label_sums, oracle.label_sums)
        assert view.watermark_time == oracle.watermark_time
        assert view.num_folded == oracle.num_folded

    @settings(max_examples=60, deadline=None)
    @given(stream=disordered_streams(), policy=st.sampled_from(POLICIES))
    def test_counters_match_stream_lateness_profile(self, stream, policy):
        src, dst, timestamps, labels, boundaries = stream
        # Window wide enough that the ring horizon never rejects: the
        # policy is the only source of drops.
        view = WindowAggregator(10, window=400.0, num_buckets=8, policy=policy)
        lo = 0
        for hi in boundaries:
            view.fold(src[lo:hi], dst[lo:hi], timestamps[lo:hi], labels[lo:hi])
            lo = hi
        lateness = np.maximum.accumulate(timestamps) - timestamps
        admitted = policy.admit_mask(lateness)
        assert view.late_dropped == (~admitted).sum()
        assert view.late_admitted == (admitted & (lateness > 0)).sum()
        # With the horizon out of play the counters are chunking-invariant
        # too: the one-shot oracle lands on identical accounting.
        oracle = recompute_window(10, 400.0, 8, src, dst, timestamps, labels,
                                  policy=policy)
        assert view.late_dropped == oracle.late_dropped
        assert view.late_admitted == oracle.late_admitted


@pytest.fixture(scope="module")
def late_stream():
    return late_events(num_events=600, num_nodes=80, late_fraction=0.4,
                       max_lateness=6000.0, seed=11)


def serve(dataset, policy, mode, runtime_config=None):
    graph = dataset.to_temporal_graph()
    provider = make_policy_provider(graph, dataset, policy)
    model = APAN(dataset.num_nodes, dataset.edge_feature_dim,
                 APANConfig(num_mailbox_slots=4, num_neighbors=4,
                            mlp_hidden_dim=16, seed=0))
    loop = ServingLoop(model, graph, batch_size=100,
                       feature_provider=provider,
                       watermark_policy=policy)
    report = loop.run(mode=mode, runtime_config=runtime_config)
    return provider, report


class TestServingRegression:
    @pytest.mark.parametrize("policy", POLICIES, ids=str)
    def test_inline_report_matches_predicted_accounting(self, late_stream,
                                                        policy):
        dataset, spec = late_stream
        admitted, dropped = expected_accounting(dataset, policy)
        provider, report = serve(dataset, policy, "inline")
        assert report.watermark_policy == str(policy)
        assert report.late_admitted == admitted
        assert report.late_dropped == dropped
        assert provider.folded == dataset.num_events
        # The provider's own snapshot agrees with the serving report.
        snapshot = provider.snapshot()
        assert snapshot["late_admitted"] == admitted
        assert snapshot["late_dropped"] == dropped
        assert snapshot["watermark_policy"] == str(policy)
        # Under admit, nothing is ever dropped on this bounded-lateness
        # stream; under drop, every late event is.
        if policy.kind == "admit":
            assert dropped == 0 and admitted == spec["num_late"]
        if policy.kind == "drop":
            assert dropped == spec["num_late"] and admitted == 0

    def test_policy_cannot_change_mid_stream(self, late_stream):
        dataset, _ = late_stream
        provider, _ = serve(dataset, WatermarkPolicy.admit(), "inline")
        with pytest.raises(RuntimeError, match="cannot change"):
            provider.set_watermark_policy(WatermarkPolicy.drop())
        # Re-installing the same policy stays a no-op.
        provider.set_watermark_policy(WatermarkPolicy.admit())

    def test_report_dict_carries_accounting(self, late_stream):
        dataset, _ = late_stream
        policy = WatermarkPolicy.fold_late(3000.0)
        _, report = serve(dataset, policy, "inline")
        record = report.as_dict()
        assert record["watermark_policy"] == "fold-late(3000)"
        assert record["late_admitted"] == report.late_admitted
        assert record["late_dropped"] == report.late_dropped

    @pytest.mark.slow
    @pytest.mark.parametrize("policy", [WatermarkPolicy.fold_late(3000.0),
                                        WatermarkPolicy.drop()], ids=str)
    def test_worker_pool_matches_predicted_accounting(self, late_stream,
                                                      policy):
        dataset, _ = late_stream
        admitted, dropped = expected_accounting(dataset, policy)
        provider, report = serve(
            dataset, policy, "worker-pool",
            runtime_config=RuntimeConfig(num_workers=1,
                                         watermark_policy=policy))
        assert report.mode == "worker-pool"
        assert report.watermark_policy == str(policy)
        assert report.late_admitted == admitted
        assert report.late_dropped == dropped
        assert provider.folded == dataset.num_events
