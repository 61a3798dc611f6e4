"""Tests for the real multi-process serving runtime.

The load-bearing guarantee is *equivalence*: the delivered-mail state after
streaming a batch sequence through the concurrent worker pool must be
bit-for-bit identical to sequential single-process propagation (and therefore
to the inline serving mode), for the deterministic update policies.  The
rest covers the operational contract: bounded backlog under backpressure,
staleness reporting, graceful drain, SIGTERM flush, and failure detection.
"""

import os
import signal
import time

import numpy as np
import pytest

from repro.core import APAN, APANConfig
from repro.core.mailbox import Mailbox
from repro.core.propagator import MailPropagator
from repro.graph.batching import EventBatch
from repro.serving import (
    PropagatorSpec,
    RuntimeConfig,
    ServingLoop,
    ServingRuntime,
)

NUM_NODES = 300
DIM = 8
SLOTS = 5


def make_stream(num_events, batch_size, seed=1000):
    """Deterministic batches with per-batch embeddings, timestamps increasing."""
    return make_sized_stream([batch_size] * (num_events // batch_size), seed)


def make_sized_stream(sizes, seed=2000):
    """Batches of the given sizes (zero allowed), timestamps increasing."""
    batches = []
    t = 0.0
    for index, size in enumerate(sizes):
        rng = np.random.default_rng(seed + index)
        src = rng.integers(0, NUM_NODES // 2, size).astype(np.int64)
        dst = rng.integers(NUM_NODES // 2, NUM_NODES, size).astype(np.int64)
        timestamps = np.sort(rng.uniform(t, t + 50.0, size))
        t = timestamps[-1] if size else t
        batch = EventBatch(
            src=src, dst=dst, timestamps=timestamps,
            edge_features=rng.normal(size=(size, DIM)),
            labels=np.zeros(size), edge_ids=np.arange(size),
        )
        batches.append((batch, rng.normal(size=(size, DIM)),
                        rng.normal(size=(size, DIM))))
    return batches


def sequential_reference(batches, update_policy="fifo", mailbox_seed=7):
    """Single-process ground truth: propagate every batch in order."""
    mailbox = Mailbox(NUM_NODES, SLOTS, DIM, update_policy=update_policy,
                      seed=mailbox_seed)
    propagator = MailPropagator(mailbox, NUM_NODES, DIM,
                                num_hops=2, num_neighbors=5, seed=3)
    for batch, src_emb, dst_emb in batches:
        propagator.propagate(batch, src_emb, dst_emb)
    return mailbox


def run_through_runtime(batches, config, update_policy="fifo", spec=None,
                        mailbox=None):
    mailbox = mailbox or Mailbox(NUM_NODES, SLOTS, DIM,
                                 update_policy=update_policy, seed=7)
    spec = spec or PropagatorSpec(NUM_NODES, DIM,
                                  dict(num_hops=2, num_neighbors=5, seed=3))
    runtime = ServingRuntime(mailbox, spec, config)
    with runtime:
        for batch, src_emb, dst_emb in batches:
            runtime.submit(batch, src_emb, dst_emb)
        runtime.drain()
        backlog_seen = runtime.max_backlog_seen
    return mailbox, backlog_seen


def assert_mailboxes_equal(reference, candidate):
    assert np.array_equal(reference.mails, candidate.mails)
    assert np.array_equal(reference.mail_times, candidate.mail_times)
    assert np.array_equal(reference.valid, candidate.valid)
    assert np.array_equal(reference._next_slot, candidate._next_slot)
    assert np.array_equal(reference._delivered, candidate._delivered)


class TestEquivalence:
    def test_zero_mail_loss_matches_sequential_bit_for_bit(self):
        """10k events through 3 concurrent workers == sequential propagation."""
        batches = make_stream(num_events=10_000, batch_size=200)
        reference = sequential_reference(batches)
        delivered, backlog_seen = run_through_runtime(
            batches, RuntimeConfig(num_workers=3, max_backlog=8))
        assert_mailboxes_equal(reference, delivered)
        assert backlog_seen <= 8

    def test_single_worker_matches_sequential(self):
        batches = make_stream(num_events=1_000, batch_size=100)
        reference = sequential_reference(batches)
        delivered, _ = run_through_runtime(
            batches, RuntimeConfig(num_workers=1, max_backlog=4))
        assert_mailboxes_equal(reference, delivered)

    def test_newest_overwrite_policy_matches_sequential(self):
        batches = make_stream(num_events=1_000, batch_size=100)
        reference = sequential_reference(batches, update_policy="newest_overwrite")
        delivered, _ = run_through_runtime(
            batches, RuntimeConfig(num_workers=2, max_backlog=4),
            update_policy="newest_overwrite")
        assert_mailboxes_equal(reference, delivered)

    @pytest.mark.parametrize("num_workers, update_policy, max_backlog", [
        (3, "newest_overwrite", 4),
        (4, "fifo", 8),
        (2, "fifo", 1),
        # Reservoir slot draws are a pure function of (seed, node, delivery
        # index), so worker mailboxes draw what sequential delivery draws.
        (1, "reservoir", 4),
        (2, "reservoir", 4),
    ])
    def test_pool_shape_matches_sequential(self, num_workers, update_policy,
                                           max_backlog):
        batches = make_stream(num_events=1_200, batch_size=100)
        reference = sequential_reference(batches, update_policy=update_policy)
        delivered, backlog_seen = run_through_runtime(
            batches, RuntimeConfig(num_workers=num_workers,
                                   max_backlog=max_backlog),
            update_policy=update_policy)
        assert_mailboxes_equal(reference, delivered)
        assert backlog_seen <= max_backlog

    def test_unseeded_reservoir_mailbox_matches_its_workers(self):
        """``seed=None`` draws its entropy once, and the handle carries it."""
        batches = make_stream(num_events=1_000, batch_size=100)
        pooled = Mailbox(NUM_NODES, SLOTS, DIM, update_policy="reservoir")
        sequential = Mailbox(NUM_NODES, SLOTS, DIM, update_policy="reservoir",
                             seed=pooled.seed)
        propagator = MailPropagator(sequential, NUM_NODES, DIM, num_hops=2,
                                    num_neighbors=5, seed=3)
        for batch, src_emb, dst_emb in batches:
            propagator.propagate(batch, src_emb, dst_emb)
        delivered, _ = run_through_runtime(
            batches, RuntimeConfig(num_workers=2, max_backlog=4),
            mailbox=pooled)
        assert_mailboxes_equal(sequential, delivered)

    @pytest.mark.parametrize("randomised", [dict(sampling="uniform"),
                                            dict(phi="concat_project")])
    def test_unseeded_propagator_matches_its_workers(self, randomised):
        """A propagator built with ``seed=None`` draws its entropy once, so
        the workers rebuilt from its spec sample and project exactly like it."""
        batches = make_stream(num_events=1_000, batch_size=100)
        mailbox = Mailbox(NUM_NODES, SLOTS, DIM)
        propagator = MailPropagator(mailbox, NUM_NODES, DIM, num_hops=2,
                                    num_neighbors=5, **randomised)
        spec = PropagatorSpec.from_propagator(propagator)
        for batch, src_emb, dst_emb in batches:
            propagator.propagate(batch, src_emb, dst_emb)
        delivered, _ = run_through_runtime(
            batches, RuntimeConfig(num_workers=2, max_backlog=4), spec=spec)
        assert_mailboxes_equal(mailbox, delivered)

    @pytest.mark.skipif("spawn" not in __import__("multiprocessing").get_all_start_methods(),
                        reason="spawn start method unavailable")
    def test_spawn_start_method_matches_sequential(self):
        batches = make_stream(num_events=600, batch_size=100)
        reference = sequential_reference(batches)
        delivered, _ = run_through_runtime(
            batches, RuntimeConfig(num_workers=2, max_backlog=4,
                                   start_method="spawn"))
        assert_mailboxes_equal(reference, delivered)

    @pytest.mark.parametrize("start_method", [
        "fork", pytest.param("spawn", marks=pytest.mark.skipif(
            "spawn" not in __import__("multiprocessing").get_all_start_methods(),
            reason="spawn start method unavailable"))])
    @pytest.mark.parametrize("num_workers, max_backlog", [
        (2, 1), (2, 3), (3, 1), (3, 3)])
    def test_mixed_batch_sizes_and_ring_growth_match_sequential(
            self, start_method, num_workers, max_backlog):
        """Empty, tiny, full and oversized batches stay bit-equal; the
        1000-event one outgrows the ring's 200-row slots mid-stream."""
        batches = make_sized_stream([0, 1, 200, 1, 1000, 0, 200, 3, 0, 1])
        reference = sequential_reference(batches)
        delivered, backlog_seen = run_through_runtime(
            batches, RuntimeConfig(num_workers=num_workers,
                                   max_backlog=max_backlog,
                                   start_method=start_method))
        assert_mailboxes_equal(reference, delivered)
        assert backlog_seen <= max_backlog

    @pytest.mark.slow
    def test_soak_100k_events_zero_mail_loss(self):
        """Sustained-rate soak: 100k events, bounded backlog, zero lost mail."""
        batches = make_stream(num_events=100_000, batch_size=500)
        reference = sequential_reference(batches)
        delivered, backlog_seen = run_through_runtime(
            batches, RuntimeConfig(num_workers=2, max_backlog=16))
        assert_mailboxes_equal(reference, delivered)
        assert backlog_seen <= 16


class TestBackpressureAndStaleness:
    def test_backlog_never_exceeds_bound(self):
        batches = make_stream(num_events=4_000, batch_size=100)
        _, backlog_seen = run_through_runtime(
            batches, RuntimeConfig(num_workers=1, max_backlog=2))
        assert 1 <= backlog_seen <= 2

    def test_staleness_snapshot_reports_progress(self):
        batches = make_stream(num_events=2_000, batch_size=100)
        mailbox = Mailbox(NUM_NODES, SLOTS, DIM)
        spec = PropagatorSpec(NUM_NODES, DIM,
                              dict(num_hops=2, num_neighbors=5, seed=3))
        with ServingRuntime(mailbox, spec,
                            RuntimeConfig(num_workers=1, max_backlog=4)) as runtime:
            snapshots = []
            for batch, src_emb, dst_emb in batches:
                snapshots.append(runtime.staleness())
                runtime.submit(batch, src_emb, dst_emb)
            runtime.drain()
            final = runtime.staleness()
        assert final.backlog == 0
        assert final.staleness_ms == 0.0
        # The watermark ends at the last batch's end time (all mail delivered).
        assert final.watermark == pytest.approx(batches[-1][0].end_time)
        assert all(s.staleness_ms >= 0.0 for s in snapshots)
        assert all(s.backlog >= 0 for s in snapshots)
        # Event lag measured at the end of the stream is zero once drained.
        assert final.event_lag(batches[-1][0].end_time) == 0.0

    def test_staleness_dates_the_oldest_undelivered_batch(self):
        """Wall staleness is the age of the oldest batch still in the ring."""
        batches = make_stream(num_events=300, batch_size=100)
        mailbox = Mailbox(NUM_NODES, SLOTS, DIM)
        spec = PropagatorSpec(NUM_NODES, DIM,
                              dict(num_hops=2, num_neighbors=5, seed=3))
        with ServingRuntime(mailbox, spec,
                            RuntimeConfig(num_workers=1, max_backlog=4)) as runtime:
            (worker_pid,) = runtime.worker_pids()
            os.kill(worker_pid, signal.SIGSTOP)  # nothing gets delivered
            try:
                before_first = time.monotonic()
                runtime.submit(*batches[0])
                after_first = time.monotonic()
                for batch, src_emb, dst_emb in batches[1:]:
                    runtime.submit(batch, src_emb, dst_emb)
                time.sleep(0.05)
                asked = time.monotonic()
                snapshot = runtime.staleness()
                answered = time.monotonic()
            finally:
                os.kill(worker_pid, signal.SIGCONT)
            runtime.drain()
            assert runtime.staleness().staleness_ms == 0.0
        assert snapshot.backlog == 3
        assert 1000.0 * (asked - after_first) <= snapshot.staleness_ms \
            <= 1000.0 * (answered - before_first)

    def test_mean_delivery_lag_is_positive_after_work(self):
        batches = make_stream(num_events=1_000, batch_size=100)
        mailbox = Mailbox(NUM_NODES, SLOTS, DIM)
        spec = PropagatorSpec(NUM_NODES, DIM,
                              dict(num_hops=2, num_neighbors=5, seed=3))
        with ServingRuntime(mailbox, spec,
                            RuntimeConfig(num_workers=1, max_backlog=4)) as runtime:
            for batch, src_emb, dst_emb in batches:
                runtime.submit(batch, src_emb, dst_emb)
            runtime.drain()
            assert runtime.mean_delivery_lag_ms() > 0.0


class TestHandOff:
    def test_submit_pickles_nothing(self, monkeypatch):
        """The hand-off ring copies embeddings into shared memory: no
        per-batch pickling anywhere on the submit path."""
        from multiprocessing.reduction import ForkingPickler
        batches = make_stream(num_events=5_000, batch_size=100)
        assert len(batches) == 50
        mailbox = Mailbox(NUM_NODES, SLOTS, DIM)
        spec = PropagatorSpec(NUM_NODES, DIM,
                              dict(num_hops=2, num_neighbors=5, seed=3))
        with ServingRuntime(mailbox, spec,
                            RuntimeConfig(num_workers=2, max_backlog=4)) as runtime:
            dumps = ForkingPickler.dumps
            calls = []

            def counting_dumps(*args, **kwargs):
                calls.append(args)
                return dumps(*args, **kwargs)

            monkeypatch.setattr(ForkingPickler, "dumps", counting_dumps)
            for batch, src_emb, dst_emb in batches:
                runtime.submit(batch, src_emb, dst_emb)
            runtime.drain()
            monkeypatch.undo()
        assert calls == []

    def test_wrong_embedding_shape_is_rejected_before_any_side_effect(self):
        batches = make_stream(num_events=1_000, batch_size=10)
        reference = sequential_reference(batches)
        mailbox = Mailbox(NUM_NODES, SLOTS, DIM)
        spec = PropagatorSpec(NUM_NODES, DIM,
                              dict(num_hops=2, num_neighbors=5, seed=3))
        with ServingRuntime(mailbox, spec,
                            RuntimeConfig(num_workers=2, max_backlog=4)) as runtime:
            batch, src_emb, dst_emb = batches[0]
            with pytest.raises(ValueError, match="shape"):
                runtime.submit(batch, src_emb[:3], dst_emb)
            with pytest.raises(ValueError, match="shape"):
                runtime.submit(batch, src_emb, dst_emb[:, :DIM - 1])
            assert runtime.store.num_events == 0
            assert runtime.submitted_count == 0
            # The pool is still alive and serves the stream as if the bad
            # submits never happened.
            for batch, src_emb, dst_emb in batches:
                runtime.submit(batch, src_emb, dst_emb)
            runtime.drain()
            assert runtime.workers_alive() == 2
        assert_mailboxes_equal(reference, mailbox)


class TestPerWorkerProgress:
    """Batch ``seq`` goes to worker ``seq % num_workers``; after a drain every
    worker's shared slots must account for exactly its own batches."""

    @pytest.fixture(scope="class", params=[1, 2, 3])
    def drained(self, request):
        num_workers = request.param
        batches = make_stream(num_events=1_100, batch_size=100)
        mailbox = Mailbox(NUM_NODES, SLOTS, DIM)
        spec = PropagatorSpec(NUM_NODES, DIM,
                              dict(num_hops=2, num_neighbors=5, seed=3))
        with ServingRuntime(mailbox, spec,
                            RuntimeConfig(num_workers=num_workers,
                                          max_backlog=4)) as runtime:
            for batch, src_emb, dst_emb in batches:
                runtime.submit(batch, src_emb, dst_emb)
            runtime.drain()
            snapshot = runtime.telemetry_snapshot()
            staleness = runtime.staleness()
            mean_lag_ms = runtime.mean_delivery_lag_ms()
        end_times = [batch.end_time for batch, _, _ in batches]
        return num_workers, end_times, snapshot, staleness, mean_lag_ms

    def test_each_watermark_slot_holds_its_workers_last_batch(self, drained):
        num_workers, end_times, snapshot, _, _ = drained
        per_worker = [end_times[worker::num_workers][-1]
                      for worker in range(num_workers)]
        assert snapshot.per_worker_watermark == per_worker
        assert snapshot.watermark == max(per_worker) == end_times[-1]

    def test_every_batch_is_delivered_exactly_once(self, drained):
        num_workers, end_times, snapshot, _, _ = drained
        assert snapshot.submitted == snapshot.delivered == len(end_times)
        assert snapshot.per_worker_delivered == [
            len(end_times[worker::num_workers]) for worker in range(num_workers)]

    def test_drained_runtime_reports_no_backlog_or_staleness(self, drained):
        _, end_times, snapshot, staleness, _ = drained
        assert snapshot.backlog == staleness.backlog == 0
        assert snapshot.staleness_ms == staleness.staleness_ms == 0.0
        assert staleness.watermark == end_times[-1]
        assert staleness.event_lag(end_times[-1]) == 0.0

    def test_mean_delivery_lag_weights_workers_by_batches(self, drained):
        _, end_times, snapshot, _, mean_lag_ms = drained
        weighted = sum(lag * count for lag, count in zip(
            snapshot.per_worker_mean_lag_ms, snapshot.per_worker_delivered))
        assert mean_lag_ms > 0.0
        assert mean_lag_ms == pytest.approx(weighted / len(end_times))


class TestLifecycle:
    def test_submit_before_start_raises(self):
        mailbox = Mailbox(NUM_NODES, SLOTS, DIM)
        spec = PropagatorSpec(NUM_NODES, DIM, dict(seed=3))
        runtime = ServingRuntime(mailbox, spec)
        (batch, src_emb, dst_emb), = make_stream(100, 100)
        with pytest.raises(RuntimeError):
            runtime.submit(batch, src_emb, dst_emb)

    def test_double_start_raises(self):
        mailbox = Mailbox(NUM_NODES, SLOTS, DIM)
        spec = PropagatorSpec(NUM_NODES, DIM, dict(seed=3))
        runtime = ServingRuntime(mailbox, spec, RuntimeConfig(num_workers=1))
        runtime.start()
        try:
            with pytest.raises(RuntimeError):
                runtime.start()
        finally:
            runtime.close(drain=False)

    def test_close_returns_mailbox_to_private_memory(self):
        mailbox = Mailbox(NUM_NODES, SLOTS, DIM)
        spec = PropagatorSpec(NUM_NODES, DIM, dict(seed=3))
        runtime = ServingRuntime(mailbox, spec, RuntimeConfig(num_workers=1))
        runtime.start()
        assert mailbox.is_shared
        runtime.close()
        assert not mailbox.is_shared
        assert runtime.workers_alive() == 0
        # The mailbox still works after the segments are gone.
        mailbox.read(np.array([0, 1]))

    def test_close_is_idempotent(self):
        mailbox = Mailbox(NUM_NODES, SLOTS, DIM)
        spec = PropagatorSpec(NUM_NODES, DIM, dict(seed=3))
        runtime = ServingRuntime(mailbox, spec, RuntimeConfig(num_workers=1))
        runtime.start()
        runtime.close()
        runtime.close()

    def test_for_model_requires_mailbox_model(self):
        with pytest.raises(TypeError):
            ServingRuntime.for_model(object())

    def test_for_model_rejects_mid_stream_model(self, tiny_dataset, tiny_graph,
                                                small_config):
        model = APAN(tiny_dataset.num_nodes, tiny_dataset.edge_feature_dim,
                     small_config)
        from repro.graph.batching import iterate_batches
        batch = next(iterate_batches(tiny_graph, batch_size=50))
        embeddings = model.compute_embeddings(batch)
        model.update_state(batch, embeddings)
        with pytest.raises(ValueError, match="reset_state"):
            ServingRuntime.for_model(model)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            RuntimeConfig(num_workers=0).validate()
        with pytest.raises(ValueError):
            RuntimeConfig(max_backlog=0).validate()
        with pytest.raises(ValueError):
            RuntimeConfig(worker_nice=-1).validate()
        with pytest.raises(ValueError):
            RuntimeConfig(start_method="no-such-method").validate()


class TestGracefulShutdown:
    def test_sigterm_flushes_pending_mail(self):
        """Workers receiving SIGTERM deliver everything already submitted."""
        batches = make_stream(num_events=2_000, batch_size=100)
        reference = sequential_reference(batches)

        mailbox = Mailbox(NUM_NODES, SLOTS, DIM)
        spec = PropagatorSpec(NUM_NODES, DIM,
                              dict(num_hops=2, num_neighbors=5, seed=3))
        runtime = ServingRuntime(mailbox, spec,
                                 RuntimeConfig(num_workers=2, max_backlog=64))
        runtime.start()
        try:
            for batch, src_emb, dst_emb in batches:
                runtime.submit(batch, src_emb, dst_emb)
            for pid in runtime.worker_pids():
                os.kill(pid, signal.SIGTERM)
            # Workers drain the backlog and exit on their own; poll without
            # drain() (which treats a dead worker as a failure).
            deadline = time.monotonic() + 60.0
            while runtime.staleness().backlog:
                if time.monotonic() > deadline:
                    pytest.fail("workers did not flush the backlog after SIGTERM")
                time.sleep(0.02)
        finally:
            runtime.close(drain=False)
        assert_mailboxes_equal(reference, mailbox)

    def test_close_without_drain_still_delivers_a_healthy_backlog(self):
        """``close(drain=False)`` skips the error checks, not the delivery:
        a live pool hands over everything submitted, in order."""
        batches = make_stream(num_events=2_000, batch_size=100)
        reference = sequential_reference(batches)
        mailbox = Mailbox(NUM_NODES, SLOTS, DIM)
        spec = PropagatorSpec(NUM_NODES, DIM,
                              dict(num_hops=2, num_neighbors=5, seed=3))
        runtime = ServingRuntime(mailbox, spec,
                                 RuntimeConfig(num_workers=2, max_backlog=64))
        runtime.start()
        for batch, src_emb, dst_emb in batches:
            runtime.submit(batch, src_emb, dst_emb)
        runtime.close(drain=False)
        assert_mailboxes_equal(reference, mailbox)

    def test_dead_worker_is_detected_under_backpressure(self):
        batches = make_stream(num_events=1_000, batch_size=100)
        mailbox = Mailbox(NUM_NODES, SLOTS, DIM)
        spec = PropagatorSpec(NUM_NODES, DIM,
                              dict(num_hops=2, num_neighbors=5, seed=3))
        runtime = ServingRuntime(mailbox, spec,
                                 RuntimeConfig(num_workers=1, max_backlog=1))
        runtime.start()
        try:
            for pid in runtime.worker_pids():
                os.kill(pid, signal.SIGKILL)
            with pytest.raises(RuntimeError, match="worker"):
                for batch, src_emb, dst_emb in batches:
                    runtime.submit(batch, src_emb, dst_emb)
        finally:
            runtime.close(drain=False)


class TestServiceIntegration:
    @pytest.fixture
    def apan(self, tiny_dataset):
        return APAN(tiny_dataset.num_nodes, tiny_dataset.edge_feature_dim,
                    APANConfig(num_mailbox_slots=4, num_neighbors=4,
                               mlp_hidden_dim=16, seed=0))

    def test_worker_pool_report(self, apan, tiny_graph):
        loop = ServingLoop(apan, tiny_graph, batch_size=50)
        report = loop.run(max_batches=4, mode="worker-pool",
                          runtime_config=RuntimeConfig(num_workers=1,
                                                       max_backlog=4))
        assert report.mode == "worker-pool"
        assert report.num_decisions == 4 * 50
        assert report.mean_decision_ms > 0.0
        assert report.max_backlog >= 1
        assert report.mean_staleness_ms >= 0.0
        assert report.max_staleness_ms >= report.mean_staleness_ms

    def test_worker_pool_warm_up_pass_changes_no_state(self, apan, tiny_graph):
        """The untimed decision pass after start() only reads the model."""
        loop = ServingLoop(apan, tiny_graph, batch_size=50)
        apan.reset_state()
        before = apan.state_snapshot()
        report = loop.run(max_batches=0, mode="worker-pool",
                          runtime_config=RuntimeConfig(num_workers=1,
                                                       max_backlog=4))
        assert report.num_decisions == 0
        after = apan.state_snapshot()
        assert set(after) == set(before)
        for name, array in before.items():
            assert np.array_equal(array, after[name]), name
        assert apan.propagator.graph.num_events == 0

    def test_unknown_mode_rejected(self, apan, tiny_graph):
        loop = ServingLoop(apan, tiny_graph, batch_size=50)
        with pytest.raises(ValueError):
            loop.run(max_batches=1, mode="asynchronous-psychic")

    @pytest.mark.parametrize("num_workers", [1, 2, 3])
    def test_worker_pool_routing_matches_inline(self, apan, tiny_graph,
                                                num_workers):
        """Mailbox routing metadata is identical between inline and the pool.

        Mail *values* legitimately differ (the worker pool lets the scorer
        read a staler mailbox when computing embeddings, and mails embed
        those embeddings) but slot occupancy, delivery times and counters
        depend only on the stream's topology — byte-equal across both modes.
        """
        loop = ServingLoop(apan, tiny_graph, batch_size=50)
        apan.reset_state()
        loop.run(max_batches=8, mode="inline")
        reference = {
            "valid": apan.mailbox.valid.copy(),
            "times": apan.mailbox.mail_times.copy(),
            "next_slot": apan.mailbox._next_slot.copy(),
            "delivered": apan.mailbox._delivered.copy(),
        }
        apan.reset_state()
        loop.run(max_batches=8, mode="worker-pool",
                 runtime_config=RuntimeConfig(num_workers=num_workers,
                                              max_backlog=4))
        assert np.array_equal(reference["valid"], apan.mailbox.valid)
        assert np.array_equal(reference["times"], apan.mailbox.mail_times)
        assert np.array_equal(reference["next_slot"], apan.mailbox._next_slot)
        assert np.array_equal(reference["delivered"], apan.mailbox._delivered)

    def test_compare_modes_covers_both(self, apan, tiny_graph):
        loop = ServingLoop(apan, tiny_graph, batch_size=50)
        reports = loop.compare_modes(
            max_batches=3,
            runtime_config=RuntimeConfig(num_workers=1, max_backlog=4))
        assert set(reports) == {"inline", "worker-pool"}
        for mode, report in reports.items():
            assert report.mode == mode
            assert report.num_decisions == 3 * 50


def _shm_segment_names():
    """Names of POSIX shared-memory segments currently in /dev/shm."""
    try:
        return {name for name in os.listdir("/dev/shm")
                if not name.startswith("sem.")}
    except FileNotFoundError:  # pragma: no cover - non-Linux
        return set()


def _record_bundle_segments(monkeypatch):
    """Collect the names of every segment a ``SharedArrayBundle`` creates:
    the shared mailbox's, the ring header's and every ring generation's."""
    from repro.serving import runtime as runtime_module
    names = set()
    create = runtime_module.SharedArrayBundle.create.__func__

    def recording_create(cls, specs, prefix=None):
        bundle = create(cls, specs, prefix)
        names.update(name for name, _, _ in bundle.handle().segments.values())
        return bundle

    monkeypatch.setattr(runtime_module.SharedArrayBundle, "create",
                        classmethod(recording_create))
    return names


def _event_store_dirs():
    import glob
    import tempfile
    return set(glob.glob(os.path.join(tempfile.gettempdir(), "apan-events-*")))


class TestSharedStateCleanup:
    """A runtime failure must never leak shared-memory segments or store files.

    Regression tests for the leak where a worker dying before detaching (or
    before ever becoming ready) left the mailbox's shared segments linked in
    /dev/shm forever: start() raised with the runtime marked un-started, so
    close() was a no-op and release_shared() never ran.
    """

    def test_failed_start_cleans_up_everything(self, monkeypatch):
        segments_before = _shm_segment_names()
        stores_before = _event_store_dirs()
        ring_segments = _record_bundle_segments(monkeypatch)
        mailbox = Mailbox(NUM_NODES, SLOTS, DIM)
        # A spec the worker cannot build: it dies before reporting ready.
        spec = PropagatorSpec(NUM_NODES, DIM, dict(sampling="no-such-strategy"))
        runtime = ServingRuntime(mailbox, spec, RuntimeConfig(num_workers=2))
        with pytest.raises(RuntimeError, match="died during startup"):
            runtime.start()
        assert not mailbox.is_shared
        # The mailbox's 5 arrays, the ring header and its embedding slots
        # existed (every one a SharedArrayBundle segment), and are gone.
        assert len(ring_segments) == 5 + 7
        assert not ring_segments & _shm_segment_names()
        assert _shm_segment_names() == segments_before
        assert _event_store_dirs() == stores_before
        # The mailbox survived the failed start in private memory.
        mailbox.read(np.array([0, 1]))
        runtime.close()  # idempotent no-op after the failed start

    def test_sigkilled_worker_close_unlinks_segments(self, monkeypatch):
        segments_before = _shm_segment_names()
        stores_before = _event_store_dirs()
        mailbox = Mailbox(NUM_NODES, SLOTS, DIM)
        spec = PropagatorSpec(NUM_NODES, DIM,
                              dict(num_hops=2, num_neighbors=5, seed=3))
        ring_segments = _record_bundle_segments(monkeypatch)
        runtime = ServingRuntime(mailbox, spec,
                                 RuntimeConfig(num_workers=2, max_backlog=4))
        runtime.start()
        # The mailbox's 5 segments, then two ring generations: the
        # 1000-event batch outgrows the slots.
        for batch, src_emb, dst_emb in make_sized_stream([10, 1000, 10]):
            runtime.submit(batch, src_emb, dst_emb)
        live_ring = {name for name, _, _ in runtime._ring.handle().segments.values()} \
            | {name for name, _, _ in runtime._slabs.handle().segments.values()}
        assert len(ring_segments) == 5 + 9 and live_ring < ring_segments
        assert live_ring <= _shm_segment_names()
        for pid in runtime.worker_pids():
            os.kill(pid, signal.SIGKILL)
        deadline = time.monotonic() + 30.0
        while runtime.workers_alive():
            if time.monotonic() > deadline:
                pytest.fail("SIGKILLed workers did not exit")
            time.sleep(0.02)
        runtime.close(drain=False)
        assert not mailbox.is_shared
        assert not ring_segments & _shm_segment_names()
        assert _shm_segment_names() == segments_before
        assert _event_store_dirs() == stores_before

    @pytest.mark.parametrize("failure", ["killed", "stuck"])
    def test_close_while_submit_error_is_live_keeps_the_error(self, failure):
        """``close`` inside the ``except`` that caught submit's error, whose
        traceback is still alive, releases everything and raises nothing."""
        segments_before = _shm_segment_names()
        stores_before = _event_store_dirs()
        mailbox = Mailbox(NUM_NODES, SLOTS, DIM)
        spec = PropagatorSpec(NUM_NODES, DIM,
                              dict(num_hops=2, num_neighbors=5, seed=3))
        runtime = ServingRuntime(mailbox, spec, RuntimeConfig(
            num_workers=1, max_backlog=1, submit_timeout_s=0.3))
        runtime.start()
        (pid,) = runtime.worker_pids()
        os.kill(pid, signal.SIGKILL if failure == "killed" else signal.SIGSTOP)
        try:
            for batch, src_emb, dst_emb in make_stream(1_000, 100):
                runtime.submit(batch, src_emb, dst_emb)
        except RuntimeError as error:
            if failure == "stuck":
                os.kill(pid, signal.SIGCONT)
            runtime.close(drain=False)
            expected = "died" if failure == "killed" else "backpressure timeout"
            assert expected in str(error)
        else:
            pytest.fail("submit never noticed the failed worker")
        assert not mailbox.is_shared
        assert _shm_segment_names() == segments_before
        assert _event_store_dirs() == stores_before

    def test_failed_start_releases_telemetry_segments(self):
        """Telemetry segments are torn down with the rest on a failed start."""
        segments_before = _shm_segment_names()
        mailbox = Mailbox(NUM_NODES, SLOTS, DIM)
        spec = PropagatorSpec(NUM_NODES, DIM, dict(sampling="no-such-strategy"))
        runtime = ServingRuntime(mailbox, spec,
                                 RuntimeConfig(num_workers=2, telemetry=True))
        with pytest.raises(RuntimeError, match="died during startup"):
            runtime.start()
        assert _shm_segment_names() == segments_before
        assert not runtime.telemetry.is_shared

    def test_sigkilled_worker_telemetry_close_unlinks_segments(self):
        segments_before = _shm_segment_names()
        mailbox = Mailbox(NUM_NODES, SLOTS, DIM)
        spec = PropagatorSpec(NUM_NODES, DIM,
                              dict(num_hops=2, num_neighbors=5, seed=3))
        runtime = ServingRuntime(
            mailbox, spec,
            RuntimeConfig(num_workers=2, max_backlog=4, telemetry=True))
        runtime.start()
        for pid in runtime.worker_pids():
            os.kill(pid, signal.SIGKILL)
        deadline = time.monotonic() + 30.0
        while runtime.workers_alive():
            if time.monotonic() > deadline:
                pytest.fail("SIGKILLed workers did not exit")
            time.sleep(0.02)
        runtime.close(drain=False)
        assert _shm_segment_names() == segments_before
        assert not runtime.telemetry.is_shared
        # The killed workers never wrote, but the scorer-side data survives
        # in a private copy and the trace still exports.
        runtime.telemetry.chrome_events()

    def test_mailbox_finalizer_unlinks_segments_without_release(self):
        """Dropping a shared mailbox without release_shared() must not leak."""
        import gc
        segments_before = _shm_segment_names()
        mailbox = Mailbox(NUM_NODES, SLOTS, DIM)
        mailbox.share_memory()
        assert _shm_segment_names() != segments_before
        del mailbox
        gc.collect()
        assert _shm_segment_names() == segments_before

    def test_share_memory_partial_failure_leaks_nothing(self, monkeypatch):
        """shm exhaustion mid-share releases the segments already created.

        The mailbox shares through ``repro.obs._shm``, so the failure is
        injected into the segments that module creates."""
        from multiprocessing import shared_memory as shm_module
        segments_before = _shm_segment_names()
        real_shared_memory = shm_module.SharedMemory
        calls = {"n": 0}

        def failing_shared_memory(*args, **kwargs):
            if kwargs.get("create"):
                calls["n"] += 1
                if calls["n"] == 3:
                    raise OSError(28, "No space left on device")
            return real_shared_memory(*args, **kwargs)

        import repro.obs._shm as shm_bundle_module
        monkeypatch.setattr(shm_bundle_module.shared_memory, "SharedMemory",
                            failing_shared_memory)
        mailbox = Mailbox(NUM_NODES, SLOTS, DIM)
        mailbox.deliver(np.array([0]), np.ones((1, DIM)), np.array([1.0]))
        state_before = mailbox.mails.copy()
        with pytest.raises(OSError):
            mailbox.share_memory()
        assert not mailbox.is_shared
        assert _shm_segment_names() == segments_before
        # State survived the failed share and the mailbox still works.
        assert np.array_equal(mailbox.mails, state_before)
        mailbox.deliver(np.array([1]), np.ones((1, DIM)), np.array([2.0]))


class TestSharedEventStore:
    def test_store_exists_while_started_and_is_destroyed_on_close(self):
        batches = make_stream(num_events=500, batch_size=100)
        mailbox = Mailbox(NUM_NODES, SLOTS, DIM)
        spec = PropagatorSpec(NUM_NODES, DIM,
                              dict(num_hops=2, num_neighbors=5, seed=3))
        runtime = ServingRuntime(mailbox, spec,
                                 RuntimeConfig(num_workers=1, max_backlog=8))
        runtime.start()
        try:
            assert runtime.store is not None
            store_path = runtime.store._path
            for batch, src_emb, dst_emb in batches:
                runtime.submit(batch, src_emb, dst_emb)
            runtime.drain()
            # Every submitted event is in the shared store, in order.
            assert runtime.store.num_events == 500
            expected = np.concatenate([b.timestamps for b, _, _ in batches])
            assert np.array_equal(runtime.store.timestamps, expected)
        finally:
            runtime.close()
        assert runtime.store is None
        assert not os.path.exists(store_path)
