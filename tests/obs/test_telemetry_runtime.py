"""Acceptance: a telemetry-enabled serving run yields a valid Chrome trace.

Drives the real multi-process runtime with ``RuntimeConfig(telemetry=True)``
and asserts the paper-pipeline coverage contract: the exported trace-event
JSON contains spans for the scorer decision path, the queue ride, the worker
propagate/apply stages and the EventStore appends, recorded across at least
two distinct worker processes — plus the live mid-run ``telemetry_snapshot``
and the no-op null-sink default.
"""

import json
import time

import numpy as np
import pytest

from repro.core import APAN, APANConfig
from repro.core.mailbox import Mailbox
from repro.core.propagator import MailPropagator
from repro.graph.batching import EventBatch
from repro.obs import NULL_TELEMETRY
from repro.serving import (
    DeploymentSimulator,
    PropagatorSpec,
    RuntimeConfig,
    ServingRuntime,
    StorageLatencyModel,
)

NUM_NODES = 200
DIM = 8
SLOTS = 4


def make_stream(num_batches=10, batch_size=40, seed=77):
    batches = []
    t = 0.0
    for index in range(num_batches):
        rng = np.random.default_rng(seed + index)
        src = rng.integers(0, NUM_NODES // 2, batch_size).astype(np.int64)
        dst = rng.integers(NUM_NODES // 2, NUM_NODES, batch_size).astype(np.int64)
        timestamps = np.sort(rng.uniform(t, t + 40.0, batch_size))
        t = timestamps[-1]
        batches.append((
            EventBatch(src=src, dst=dst, timestamps=timestamps,
                       edge_features=rng.normal(size=(batch_size, DIM)),
                       labels=np.zeros(batch_size),
                       edge_ids=np.arange(batch_size)),
            rng.normal(size=(batch_size, DIM)),
            rng.normal(size=(batch_size, DIM)),
        ))
    return batches


def start_runtime(telemetry=True, num_workers=2, **config_overrides):
    mailbox = Mailbox(NUM_NODES, SLOTS, DIM, update_policy="fifo")
    propagator = MailPropagator(mailbox, NUM_NODES, DIM,
                                num_hops=2, num_neighbors=5, seed=3)
    runtime = ServingRuntime(
        mailbox, PropagatorSpec.from_propagator(propagator),
        RuntimeConfig(num_workers=num_workers, telemetry=telemetry,
                      **config_overrides))
    return runtime.start()


class TestServingTrace:
    """The acceptance-criterion trace: full pipeline coverage, >= 2 workers."""

    @pytest.fixture(scope="class")
    def trace_document(self, tmp_path_factory):
        runtime = start_runtime(num_workers=2)
        try:
            for batch, src_emb, dst_emb in make_stream():
                runtime.submit(batch, src_emb, dst_emb)
            runtime.drain()
        finally:
            runtime.close(drain=False)
        path = tmp_path_factory.mktemp("obs") / "trace.json"
        runtime.telemetry.write_chrome_trace(path)
        return json.loads(path.read_text())

    def test_object_format(self, trace_document):
        assert trace_document["displayTimeUnit"] == "ms"
        assert isinstance(trace_document["traceEvents"], list)

    def test_all_pipeline_stages_covered(self, trace_document):
        span_names = {e["name"] for e in trace_document["traceEvents"]
                      if e.get("ph") == "X"}
        for required in ("scorer.submit", "queue.ride", "worker.propagate",
                         "worker.apply", "store.append", "view.fold"):
            assert required in span_names, f"no {required} span in trace"

    def test_view_fold_spans_carry_rows_folded(self, trace_document):
        # Index maintenance is its own span, separable from sampling: each
        # worker's folds add up to the store prefix its last batch routed
        # against, and the last batch of all saw every earlier row.
        stream = make_stream()
        rows_before_last = sum(len(batch.src) for batch, _, _ in stream[:-1])
        folded = {}
        for event in trace_document["traceEvents"]:
            if event.get("ph") == "X" and event["name"] == "view.fold":
                folded[event["pid"]] = folded.get(event["pid"], 0) \
                    + event["args"]["value"]
        assert max(folded.values()) == rows_before_last

    def test_spans_from_two_worker_processes(self, trace_document):
        pids = {e["pid"] for e in trace_document["traceEvents"]
                if e.get("ph") == "X" and e["name"] == "worker.propagate"}
        assert len(pids) >= 2

    def test_process_names_labelled(self, trace_document):
        labels = {e["args"]["name"] for e in trace_document["traceEvents"]
                  if e.get("ph") == "M"}
        assert labels == {"scorer", "worker-0", "worker-1"}

    def test_spans_have_positive_timestamps_and_durations(self, trace_document):
        spans = [e for e in trace_document["traceEvents"] if e.get("ph") == "X"]
        assert spans
        assert all(e["ts"] >= 0.0 and e["dur"] >= 0.0 for e in spans)


class TestRuntimeMetrics:
    def test_counters_and_histograms_after_run(self):
        runtime = start_runtime(num_workers=2)
        stream = make_stream()
        try:
            for batch, src_emb, dst_emb in stream:
                runtime.submit(batch, src_emb, dst_emb)
            runtime.drain()
        finally:
            runtime.close(drain=False)
        telemetry = runtime.telemetry
        num_batches = len(stream)
        num_events = sum(len(b.src) for b, _, _ in stream)
        assert telemetry.counter_value("batches.submitted") == num_batches
        assert telemetry.counter_value("batches.delivered") == num_batches
        assert telemetry.counter_value("events.submitted") == num_events
        assert telemetry.histogram_summary("worker.propagate").count == num_batches
        assert telemetry.histogram_summary("queue.ride").count == num_batches
        # Spans feed duration histograms in milliseconds: sane magnitudes.
        propagate = telemetry.histogram_summary("worker.propagate")
        assert 0.0 < propagate.p50 <= propagate.max < 60_000.0

    def test_telemetry_snapshot_mid_run_and_after_drain(self):
        runtime = start_runtime(num_workers=2)
        stream = make_stream(num_batches=12)
        saw_backlog = False
        try:
            for batch, src_emb, dst_emb in stream:
                runtime.submit(batch, src_emb, dst_emb)
            # Poll live while the pool works the backlog down.
            deadline = time.monotonic() + 60.0
            while True:
                snapshot = runtime.telemetry_snapshot()
                assert len(snapshot.per_worker_delivered) == 2
                assert len(snapshot.per_worker_watermark) == 2
                assert len(snapshot.per_worker_mean_lag_ms) == 2
                assert snapshot.backlog == snapshot.submitted - snapshot.delivered
                saw_backlog = saw_backlog or snapshot.backlog > 0
                if snapshot.delivered == snapshot.submitted or \
                        time.monotonic() > deadline:
                    break
                time.sleep(0.005)
            runtime.drain()
            final = runtime.telemetry_snapshot()
        finally:
            runtime.close(drain=False)
        assert saw_backlog, "never observed the pool mid-flight"
        assert final.backlog == 0
        assert final.submitted == final.delivered == len(stream)
        assert sum(final.per_worker_delivered) == len(stream)
        assert all(lag >= 0.0 for lag in final.per_worker_mean_lag_ms)
        assert final.metrics["counters"]["batches.delivered"] == len(stream)

    def test_null_sink_is_default_and_free_of_segments(self):
        runtime = start_runtime(telemetry=False, num_workers=1)
        try:
            assert runtime.telemetry is NULL_TELEMETRY
            assert not runtime.telemetry.enabled
            for batch, src_emb, dst_emb in make_stream(num_batches=2):
                runtime.submit(batch, src_emb, dst_emb)
            runtime.drain()
            snapshot = runtime.telemetry_snapshot()
            assert snapshot.metrics == {"counters": {}, "gauges": {},
                                        "histograms": {}}
            assert snapshot.delivered == 2
        finally:
            runtime.close(drain=False)
        assert runtime.telemetry.chrome_events() == []


class TestSimulatorIntegration:
    @pytest.fixture
    def apan(self, tiny_dataset):
        return APAN(tiny_dataset.num_nodes, tiny_dataset.edge_feature_dim,
                    APANConfig(num_mailbox_slots=4, num_neighbors=4,
                               mlp_hidden_dim=16, seed=0))

    def test_last_telemetry_exposes_scorer_spans(self, apan, tiny_graph, tmp_path):
        storage = StorageLatencyModel(graph_query_ms=0.0, kv_read_ms=0.0,
                                      jitter=0.0, seed=0)
        simulator = DeploymentSimulator(apan, tiny_graph, storage=storage,
                                        batch_size=50)
        report = simulator.run(
            max_batches=6, mode="asynchronous-real",
            runtime_config=RuntimeConfig(num_workers=2, telemetry=True))
        telemetry = simulator.last_telemetry
        assert telemetry is not None and telemetry.enabled
        assert report.num_decisions == 6 * 50
        span_names = {e["name"] for e in telemetry.chrome_events()
                      if e.get("ph") == "X"}
        assert {"scorer.decision", "scorer.encode", "scorer.submit",
                "queue.ride", "worker.propagate",
                "worker.apply"} <= span_names
        assert telemetry.histogram_summary("scorer.decision").count == 6
        document = json.loads(
            telemetry.write_chrome_trace(tmp_path / "t.json").read_text())
        assert document["traceEvents"]

    def test_last_telemetry_none_without_flag(self, apan, tiny_graph):
        simulator = DeploymentSimulator(apan, tiny_graph, batch_size=50)
        simulator.run(max_batches=2, mode="asynchronous-real",
                      runtime_config=RuntimeConfig(num_workers=1))
        assert simulator.last_telemetry is None
