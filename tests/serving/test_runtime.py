"""Tests for the real multi-process serving runtime.

The load-bearing guarantee is *equivalence*: the delivered-mail state after
streaming a batch sequence through the concurrent worker pool must be
bit-for-bit identical to sequential single-process propagation (and therefore
to the deterministic simulator), for the deterministic update policies.  The
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
    DeploymentSimulator,
    PropagatorSpec,
    RuntimeConfig,
    ServingRuntime,
    StorageLatencyModel,
)

NUM_NODES = 300
DIM = 8
SLOTS = 5


def make_stream(num_events, batch_size, seed=1000):
    """Deterministic batches with per-batch embeddings, timestamps increasing."""
    batches = []
    t = 0.0
    for index in range(num_events // batch_size):
        rng = np.random.default_rng(seed + index)
        src = rng.integers(0, NUM_NODES // 2, batch_size).astype(np.int64)
        dst = rng.integers(NUM_NODES // 2, NUM_NODES, batch_size).astype(np.int64)
        timestamps = np.sort(rng.uniform(t, t + 50.0, batch_size))
        t = timestamps[-1]
        batch = EventBatch(
            src=src, dst=dst, timestamps=timestamps,
            edge_features=rng.normal(size=(batch_size, DIM)),
            labels=np.zeros(batch_size), edge_ids=np.arange(batch_size),
        )
        batches.append((batch,
                        rng.normal(size=(batch_size, DIM)),
                        rng.normal(size=(batch_size, DIM))))
    return batches


def sequential_reference(batches, update_policy="fifo"):
    """Single-process ground truth: propagate every batch in order."""
    mailbox = Mailbox(NUM_NODES, SLOTS, DIM, update_policy=update_policy)
    propagator = MailPropagator(mailbox, NUM_NODES, DIM,
                                num_hops=2, num_neighbors=5, seed=3)
    for batch, src_emb, dst_emb in batches:
        propagator.propagate(batch, src_emb, dst_emb)
    return mailbox


def run_through_runtime(batches, config, update_policy="fifo"):
    mailbox = Mailbox(NUM_NODES, SLOTS, DIM, update_policy=update_policy)
    spec = PropagatorSpec(NUM_NODES, DIM,
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

    @pytest.mark.skipif("spawn" not in __import__("multiprocessing").get_all_start_methods(),
                        reason="spawn start method unavailable")
    def test_spawn_start_method_matches_sequential(self):
        batches = make_stream(num_events=600, batch_size=100)
        reference = sequential_reference(batches)
        delivered, _ = run_through_runtime(
            batches, RuntimeConfig(num_workers=2, max_backlog=4,
                                   start_method="spawn"))
        assert_mailboxes_equal(reference, delivered)

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

    def test_inflight_walls_stay_bounded_without_staleness_polls(self):
        """submit() prunes delivered batches itself (it used to be staleness())."""
        batches = make_stream(num_events=2_000, batch_size=2)
        assert len(batches) == 1_000
        mailbox = Mailbox(NUM_NODES, SLOTS, DIM)
        spec = PropagatorSpec(NUM_NODES, DIM,
                              dict(num_hops=2, num_neighbors=5, seed=3))
        config = RuntimeConfig(num_workers=1, max_backlog=4)
        with ServingRuntime(mailbox, spec, config) as runtime:
            for batch, src_emb, dst_emb in batches:
                runtime.submit(batch, src_emb, dst_emb)
                assert len(runtime._inflight_walls) <= config.max_backlog
            runtime.drain()

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

    def test_real_mode_report(self, apan, tiny_graph):
        simulator = DeploymentSimulator(apan, tiny_graph, batch_size=50)
        report = simulator.run(max_batches=4, mode="asynchronous-real",
                               runtime_config=RuntimeConfig(num_workers=1,
                                                            max_backlog=4))
        assert report.mode == "asynchronous-real"
        assert report.num_decisions == 4 * 50
        assert report.mean_decision_ms > 0.0
        assert report.max_backlog >= 1
        assert report.mean_staleness_ms >= 0.0
        assert report.max_staleness_ms >= report.mean_staleness_ms

    def test_mode_and_synchronous_are_exclusive(self, apan, tiny_graph):
        simulator = DeploymentSimulator(apan, tiny_graph, batch_size=50)
        with pytest.raises(ValueError, match="not both"):
            simulator.run(max_batches=1, mode="synchronous", synchronous=True)

    def test_unknown_mode_rejected(self, apan, tiny_graph):
        simulator = DeploymentSimulator(apan, tiny_graph, batch_size=50)
        with pytest.raises(ValueError):
            simulator.run(max_batches=1, mode="asynchronous-psychic")

    def test_real_mode_routing_matches_simulated(self, apan, tiny_graph):
        """Mailbox routing metadata is identical between simulated and real.

        Mail *values* legitimately differ (the real runtime reads a staler
        mailbox when computing embeddings, and mails embed those embeddings)
        but slot occupancy, delivery times and counters depend only on the
        stream's topology — byte-equal across both async modes.
        """
        storage = StorageLatencyModel(graph_query_ms=0.0, kv_read_ms=0.0,
                                      jitter=0.0, seed=0)
        simulator = DeploymentSimulator(apan, tiny_graph, storage=storage,
                                        batch_size=50)
        apan.reset_state()
        simulator.run(max_batches=8, mode="asynchronous-simulated")
        reference = {
            "valid": apan.mailbox.valid.copy(),
            "times": apan.mailbox.mail_times.copy(),
            "next_slot": apan.mailbox._next_slot.copy(),
            "delivered": apan.mailbox._delivered.copy(),
        }
        apan.reset_state()
        simulator.run(max_batches=8, mode="asynchronous-real",
                      runtime_config=RuntimeConfig(num_workers=2, max_backlog=4))
        assert np.array_equal(reference["valid"], apan.mailbox.valid)
        assert np.array_equal(reference["times"], apan.mailbox.mail_times)
        assert np.array_equal(reference["next_slot"], apan.mailbox._next_slot)
        assert np.array_equal(reference["delivered"], apan.mailbox._delivered)

    def test_compare_modes_covers_all_three(self, apan, tiny_graph):
        storage = StorageLatencyModel(graph_query_ms=0.5, kv_read_ms=0.1,
                                      jitter=0.0, seed=0)
        simulator = DeploymentSimulator(apan, tiny_graph, storage=storage,
                                        batch_size=50)
        reports = simulator.compare_modes(
            max_batches=3,
            runtime_config=RuntimeConfig(num_workers=1, max_backlog=4))
        assert set(reports) == {"synchronous", "asynchronous-simulated",
                                "asynchronous-real"}
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

    def test_failed_start_cleans_up_everything(self):
        segments_before = _shm_segment_names()
        stores_before = _event_store_dirs()
        mailbox = Mailbox(NUM_NODES, SLOTS, DIM)
        # A spec the worker cannot build: it dies before reporting ready.
        spec = PropagatorSpec(NUM_NODES, DIM, dict(sampling="no-such-strategy"))
        runtime = ServingRuntime(mailbox, spec, RuntimeConfig(num_workers=2))
        with pytest.raises(RuntimeError, match="died during startup"):
            runtime.start()
        assert not mailbox.is_shared
        assert _shm_segment_names() == segments_before
        assert _event_store_dirs() == stores_before
        # The mailbox survived the failed start in private memory.
        mailbox.read(np.array([0, 1]))
        runtime.close()  # idempotent no-op after the failed start

    def test_sigkilled_worker_close_unlinks_segments(self):
        segments_before = _shm_segment_names()
        stores_before = _event_store_dirs()
        mailbox = Mailbox(NUM_NODES, SLOTS, DIM)
        spec = PropagatorSpec(NUM_NODES, DIM,
                              dict(num_hops=2, num_neighbors=5, seed=3))
        runtime = ServingRuntime(mailbox, spec,
                                 RuntimeConfig(num_workers=2, max_backlog=4))
        runtime.start()
        for pid in runtime.worker_pids():
            os.kill(pid, signal.SIGKILL)
        deadline = time.monotonic() + 30.0
        while runtime.workers_alive():
            if time.monotonic() > deadline:
                pytest.fail("SIGKILLed workers did not exit")
            time.sleep(0.02)
        runtime.close(drain=False)
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
        """shm exhaustion mid-share releases the segments already created."""
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

        import repro.core.mailbox as mailbox_module
        monkeypatch.setattr(mailbox_module.shared_memory, "SharedMemory",
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


class TestShardedRuntime:
    """Shard-per-worker serving: partitioned mailbox state, bit-equal mail."""

    def _run_sharded(self, batches, num_shards, update_policy="fifo"):
        from repro.storage import ShardMap, ShardedMailbox
        shard_map = ShardMap(NUM_NODES, num_shards=num_shards)
        mailbox = ShardedMailbox(shard_map, SLOTS, DIM,
                                 update_policy=update_policy)
        spec = PropagatorSpec(NUM_NODES, DIM,
                              dict(num_hops=2, num_neighbors=5, seed=3))
        with ServingRuntime(mailbox, spec,
                            RuntimeConfig(num_workers=num_shards,
                                          max_backlog=8)) as runtime:
            for batch, src_emb, dst_emb in batches:
                runtime.submit(batch, src_emb, dst_emb)
            runtime.drain()
        return mailbox

    def test_sharded_delivery_matches_sequential_bit_for_bit(self):
        batches = make_stream(num_events=3_000, batch_size=150)
        reference = sequential_reference(batches)
        sharded = self._run_sharded(batches, num_shards=3)
        assert_mailboxes_equal(reference, sharded)

    def test_single_shard_degenerate_matches_sequential(self):
        batches = make_stream(num_events=1_000, batch_size=100)
        reference = sequential_reference(batches)
        sharded = self._run_sharded(batches, num_shards=1)
        assert_mailboxes_equal(reference, sharded)

    def test_newest_overwrite_sharded_matches_sequential(self):
        batches = make_stream(num_events=1_000, batch_size=100)
        reference = sequential_reference(batches,
                                         update_policy="newest_overwrite")
        sharded = self._run_sharded(batches, num_shards=2,
                                    update_policy="newest_overwrite")
        assert_mailboxes_equal(reference, sharded)

    def test_worker_count_must_match_shard_count(self):
        from repro.storage import ShardMap, ShardedMailbox
        shard_map = ShardMap(NUM_NODES, num_shards=3)
        mailbox = ShardedMailbox(shard_map, SLOTS, DIM)
        spec = PropagatorSpec(NUM_NODES, DIM, dict(seed=3))
        with pytest.raises(ValueError, match="one worker per shard"):
            ServingRuntime(mailbox, spec, RuntimeConfig(num_workers=2))


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
