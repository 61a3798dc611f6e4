"""Shared-memory metrics: cross-process publication, aggregation, lifecycle."""

import multiprocessing as mp
import os

import numpy as np
import pytest

from repro.obs import MetricsSpec, SharedMetrics
from repro.obs._shm import SharedArrayBundle


def _shm_segment_names():
    try:
        return {name for name in os.listdir("/dev/shm")
                if not name.startswith("sem.")}
    except FileNotFoundError:  # non-Linux
        return set()


@pytest.fixture
def spec():
    return MetricsSpec(counters=("requests", "errors"),
                       gauges=("depth",),
                       histograms=("latency_ms",))


class TestSpec:
    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            MetricsSpec(counters=("a", "a"))

    def test_unsorted_bounds_rejected(self):
        with pytest.raises(ValueError, match="sorted"):
            MetricsSpec(histograms=("h",), hist_bounds=(2.0, 1.0))

    def test_writer_slot_validated(self, spec):
        with pytest.raises(ValueError, match="writer"):
            SharedMetrics.create(spec, num_writers=2, writer=2)


class TestSingleProcess:
    def test_counters_sum_across_writers(self, spec):
        metrics = SharedMetrics.create(spec, num_writers=3)
        try:
            other = SharedMetrics.attach(metrics.handle(), writer=2)
            metrics.counter_add("requests", 5)
            other.counter_add("requests", 7)
            assert metrics.counter_value("requests") == 12.0
            assert metrics.counter_value("errors") == 0.0
            other.release()
        finally:
            metrics.release()

    def test_gauges_are_per_writer(self, spec):
        metrics = SharedMetrics.create(spec, num_writers=2)
        try:
            metrics.gauge_set("depth", 3.0)
            assert metrics.gauge_values("depth") == [3.0, None]
        finally:
            metrics.release()

    def test_histogram_summary_exact_moments(self, spec):
        metrics = SharedMetrics.create(spec, num_writers=1)
        try:
            values = np.random.default_rng(0).exponential(10.0, 500)
            for v in values:
                metrics.observe("latency_ms", float(v))
            summary = metrics.histogram_summary("latency_ms")
            # sum/count/min/max are tracked exactly, not bucketed.
            assert summary.count == 500
            assert summary.mean == pytest.approx(values.mean())
            assert summary.min == pytest.approx(values.min())
            assert summary.max == pytest.approx(values.max())
            assert summary.p50 == pytest.approx(np.percentile(values, 50), rel=1.0)
        finally:
            metrics.release()

    def test_observe_buckets_like_searchsorted(self, spec):
        values = [0.0, -1.0, 1e12, float("inf"), float("nan"),
                  *spec.hist_bounds[:3], spec.hist_bounds[-1],
                  *np.random.default_rng(1).lognormal(0.0, 4.0, 200)]
        metrics = SharedMetrics.create(spec, num_writers=1)
        try:
            for v in values:
                metrics.observe("latency_ms", float(v))
            buckets = np.searchsorted(np.asarray(spec.hist_bounds),
                                      np.asarray(values, dtype=np.float64),
                                      side="left")
            expected = np.bincount(buckets, minlength=len(spec.hist_bounds) + 1)
            counts = metrics._bundle["hist_counts"][0, 0]
            assert counts.tolist() == expected.astype(np.float64).tolist()
        finally:
            metrics.release()

    def test_snapshot_shape(self, spec):
        metrics = SharedMetrics.create(spec, num_writers=1)
        try:
            snapshot = metrics.snapshot()
            assert set(snapshot) == {"counters", "gauges", "histograms"}
            assert snapshot["histograms"]["latency_ms"].count == 0
        finally:
            metrics.release()


class TestCrossProcess:
    def test_fork_workers_publish_live(self, spec):
        metrics = SharedMetrics.create(spec, num_writers=3)
        handle = metrics.handle()

        def worker(writer):
            attached = SharedMetrics.attach(handle, writer=writer)
            attached.counter_add("requests", 10 * writer)
            attached.gauge_set("depth", float(writer))
            for v in (1.0, 2.0, 4.0):
                attached.observe("latency_ms", v * writer)
            attached.release()

        ctx = mp.get_context("fork")
        procs = [ctx.Process(target=worker, args=(w,)) for w in (1, 2)]
        try:
            for p in procs:
                p.start()
            for p in procs:
                p.join(timeout=30)
            assert all(p.exitcode == 0 for p in procs)
            assert metrics.counter_value("requests") == 30.0
            assert metrics.gauge_values("depth") == [None, 1.0, 2.0]
            summary = metrics.histogram_summary("latency_ms")
            assert summary.count == 6
            assert summary.max == pytest.approx(8.0)
        finally:
            metrics.release()


class TestLifecycle:
    def test_release_unlinks_and_keeps_data(self, spec):
        before = _shm_segment_names()
        metrics = SharedMetrics.create(spec, num_writers=1)
        assert _shm_segment_names() - before  # segments exist while shared
        metrics.counter_add("requests", 3)
        metrics.release()
        assert _shm_segment_names() == before  # all unlinked
        assert not metrics.is_shared
        assert metrics.counter_value("requests") == 3.0  # private copy reads

    def test_release_idempotent(self, spec):
        metrics = SharedMetrics.create(spec, num_writers=1)
        metrics.release()
        metrics.release()

    def test_handle_after_release_rejected(self, spec):
        metrics = SharedMetrics.create(spec, num_writers=1)
        metrics.release()
        with pytest.raises(RuntimeError, match="not shared"):
            metrics.handle()

    def test_release_unlinks_when_a_live_view_pins_a_segment(self):
        """Some NumPy versions make ``close`` raise ``BufferError`` while a
        view is alive; release must still unlink every segment and return."""
        before = _shm_segment_names()
        bundle = SharedArrayBundle.create({"a": ((4,), np.float64),
                                           "b": ((4,), np.float64)})
        pinned = bundle._segments["a"]

        def pinned_close():
            raise BufferError("cannot close exported pointers exist")

        pinned.close = pinned_close
        bundle.release(keep=False)
        assert not bundle.is_shared
        assert _shm_segment_names() == before
        del pinned.close
        pinned.close()

    def test_garbage_collection_unlinks(self, spec):
        before = _shm_segment_names()
        metrics = SharedMetrics.create(spec, num_writers=1)
        assert _shm_segment_names() - before
        del metrics  # finalizer safety net, no explicit release
        assert _shm_segment_names() == before

    def test_partial_create_failure_unwinds(self, monkeypatch):
        from multiprocessing import shared_memory
        before = _shm_segment_names()
        real = shared_memory.SharedMemory
        calls = {"n": 0}

        def failing(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] >= 3:
                raise OSError("shm exhausted")
            return real(*args, **kwargs)

        monkeypatch.setattr(shared_memory, "SharedMemory", failing)
        with pytest.raises(OSError, match="exhausted"):
            SharedArrayBundle.create({
                "a": ((4,), np.float64),
                "b": ((4,), np.float64),
                "c": ((4,), np.float64),
            })
        monkeypatch.undo()
        assert _shm_segment_names() == before
