"""Tests for the closed-loop serving path (``ServingLoop``)."""

import numpy as np
import pytest

from repro.core import APAN, APANConfig
from repro.baselines import TGAT, TGN, DyRep, JODIE
from repro.obs import NULL_TELEMETRY
from repro.serving import FeatureProvider, RuntimeConfig, ServingLoop, SERVING_MODES
from repro.serving import service

# Model name -> factory over the tiny dataset.  Only APAN has a mailbox.
MODELS = {
    "APAN": lambda d: APAN(d.num_nodes, d.edge_feature_dim,
                           APANConfig(num_mailbox_slots=4, num_neighbors=4,
                                      mlp_hidden_dim=16, seed=0)),
    "TGN": lambda d: TGN(d.num_nodes, d.edge_feature_dim, num_layers=1,
                         num_neighbors=4, seed=0),
    "TGAT": lambda d: TGAT(d.num_nodes, d.edge_feature_dim, num_layers=1,
                           num_neighbors=4, seed=0),
    "DyRep": lambda d: DyRep(d.num_nodes, d.edge_feature_dim, num_neighbors=4,
                             seed=0),
    "JODIE": lambda d: JODIE(d.num_nodes, d.edge_feature_dim, seed=0),
}
MAILBOX_FREE = [name for name in MODELS if name != "APAN"]

# Small pool: one worker is enough to exercise the worker-pool mode.
POOL = RuntimeConfig(num_workers=1, max_backlog=4)


@pytest.fixture
def apan(tiny_dataset):
    return MODELS["APAN"](tiny_dataset)


def spy_compute_latencies(monkeypatch):
    """Capture the per-batch measured compute the loop hands to its report."""
    captured = {}
    report = service._percentile_report

    def spy(mode, decision_latencies, compute_latencies, num_events, **extra):
        captured["compute"] = list(compute_latencies)
        return report(mode, decision_latencies, compute_latencies, num_events,
                      **extra)

    monkeypatch.setattr(service, "_percentile_report", spy)
    return captured


class FailingProvider(FeatureProvider):
    """Feature provider whose lookup fails on the ``fail_at``-th batch."""

    def __init__(self, fail_at: int):
        self.fail_at = fail_at
        self.lookups = 0

    def lookup(self, batch):
        self.lookups += 1
        if self.lookups == self.fail_at:
            raise RuntimeError("feature store unavailable")
        return None


class TestServingLoop:
    def test_modes_and_default(self, apan, tiny_graph):
        assert SERVING_MODES == ("inline", "worker-pool")
        report = ServingLoop(apan, tiny_graph, batch_size=64).run(max_batches=1)
        assert report.mode == "inline"

    @pytest.mark.parametrize("mode", SERVING_MODES)
    def test_report_fields(self, apan, tiny_graph, mode):
        report = ServingLoop(apan, tiny_graph, batch_size=64).run(
            max_batches=3, mode=mode, runtime_config=POOL)
        assert report.mode == mode
        assert report.mean_decision_ms > 0
        assert report.p99_decision_ms >= report.p50_decision_ms
        assert report.num_decisions == 3 * 64
        assert len(report.decision_latencies_ms) == 3
        assert set(report.as_dict()) >= {"mode", "mean_decision_ms", "p95_decision_ms"}

    def test_whole_stream_including_a_partial_batch(self, apan, tiny_graph):
        report = ServingLoop(apan, tiny_graph, batch_size=64).run()
        assert report.num_decisions == tiny_graph.num_events
        expected_batches = -(-tiny_graph.num_events // 64)
        assert len(report.decision_latencies_ms) == expected_batches

    @pytest.mark.parametrize("name", list(MODELS))
    def test_inline_serves_every_model(self, tiny_dataset, tiny_graph, name):
        report = ServingLoop(MODELS[name](tiny_dataset), tiny_graph,
                             batch_size=64).run(max_batches=2)
        assert report.mode == "inline"
        assert report.num_decisions == 128
        assert report.mean_async_lag_ms == 0.0
        assert report.max_staleness_ms == 0.0
        assert report.max_backlog == 0

    def test_inline_decision_includes_the_state_update(self, apan, tiny_graph,
                                                       monkeypatch):
        """Inline, the update runs inside the timed decision (Figure 2a)."""
        captured = spy_compute_latencies(monkeypatch)
        report = ServingLoop(apan, tiny_graph, batch_size=64).run(max_batches=3)
        assert all(decision > compute for decision, compute
                   in zip(report.decision_latencies_ms, captured["compute"]))
        assert apan.propagator.graph.num_events == 3 * 64

    def test_worker_pool_decision_is_measured_compute_only(self, apan,
                                                           tiny_graph,
                                                           monkeypatch):
        """No modelled storage cost is added to a measured decision."""
        captured = spy_compute_latencies(monkeypatch)
        report = ServingLoop(apan, tiny_graph, batch_size=64).run(
            max_batches=4, mode="worker-pool",
            runtime_config=RuntimeConfig(num_workers=1, max_backlog=4))
        assert report.mode == "worker-pool"
        assert report.decision_latencies_ms == captured["compute"]
        assert report.mean_decision_ms == report.mean_compute_ms

    @pytest.mark.parametrize("name", MAILBOX_FREE)
    def test_worker_pool_needs_a_mailbox_model(self, tiny_dataset, tiny_graph,
                                               name):
        model = MODELS[name](tiny_dataset)
        model.train()
        with pytest.raises(TypeError, match="mailbox"):
            ServingLoop(model, tiny_graph, batch_size=64).run(
                max_batches=1, mode="worker-pool")
        assert model.training

    @pytest.mark.parametrize("training", [True, False], ids=["train", "eval"])
    @pytest.mark.parametrize("mode", SERVING_MODES)
    def test_run_restores_training_flag(self, apan, tiny_graph, mode, training):
        apan.train(training)
        ServingLoop(apan, tiny_graph, batch_size=64).run(
            max_batches=1, mode=mode, runtime_config=POOL)
        assert apan.training is training

    @pytest.mark.parametrize("mode", SERVING_MODES)
    def test_failed_decision_restores_model_and_provider(self, apan, tiny_graph,
                                                         mode):
        provider = FailingProvider(fail_at=2)
        loop = ServingLoop(apan, tiny_graph, batch_size=64,
                           feature_provider=provider)
        apan.train()
        with pytest.raises(RuntimeError, match="feature store unavailable"):
            loop.run(max_batches=3, mode=mode, runtime_config=POOL)
        assert provider.lookups == 2
        assert apan.training
        assert provider.telemetry is NULL_TELEMETRY
        assert loop.last_telemetry is None

    def test_compare_modes_starts_every_mode_from_blank_state(self, apan,
                                                              tiny_graph):
        loop = ServingLoop(apan, tiny_graph, batch_size=64)
        loop.run(max_batches=3)
        after_one_run = apan.mailbox.mails.copy()
        assert after_one_run.any()
        # compare_modes resets first, so serving the prefix again after a
        # dirty run lands on the same mailbox as the first run did.
        reports = loop.compare_modes(max_batches=3, modes=("inline",))
        assert reports["inline"].num_decisions == 3 * 64
        assert np.array_equal(after_one_run, apan.mailbox.mails)

    @pytest.mark.parametrize("kwarg", ["storage", "async_workers",
                                       "async_work_factor"])
    def test_loop_takes_no_storage_model_knobs(self, apan, tiny_graph, kwarg):
        with pytest.raises(TypeError):
            ServingLoop(apan, tiny_graph, **{kwarg: None})

    def test_run_takes_no_synchronous_flag(self, apan, tiny_graph):
        with pytest.raises(TypeError):
            ServingLoop(apan, tiny_graph).run(max_batches=1, synchronous=True)
