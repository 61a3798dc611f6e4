"""ViewRegistry vs. EventStore.refresh() races (the silent-clamp bugfix).

A reader-attached mmap store only sees rows its writer has *published*
(the seqlock-guarded counts in ``header.bin``).  NumPy would silently clamp a
column slice past that prefix, so a registry racing ahead of the writer used
to be able to fold a short block and desynchronise forever.  These tests pin
the fix:
``advance(hi)`` past the published prefix refreshes once, then raises
:class:`StaleStoreError` with both counts — and folds correctly (oracle
bit-equality) once the writer actually publishes.
"""

import multiprocessing as mp
import time

import numpy as np
import pytest

from repro.analytics import (
    DegreeVelocity,
    StaleStoreError,
    ViewRegistry,
    WindowAggregator,
    recompute_velocity,
    recompute_window,
)
from repro.storage import EventStore

NUM_NODES = 20
WINDOW = 25.0
NUM_BUCKETS = 8


def make_events(n, seed=11, t0=0.0):
    rng = np.random.default_rng(seed)
    src = rng.integers(0, NUM_NODES, n)
    dst = rng.integers(0, NUM_NODES, n)
    ts = np.sort(rng.uniform(t0, t0 + 50.0, n))
    ef = rng.normal(size=(n, 3))
    lab = rng.integers(0, 2, n).astype(np.float64)
    return src, dst, ts, ef, lab


def make_registry(store):
    registry = ViewRegistry(store)
    registry.register("window", WindowAggregator(NUM_NODES, WINDOW,
                                                 num_buckets=NUM_BUCKETS))
    registry.register("velocity", DegreeVelocity(NUM_NODES))
    return registry


def assert_matches_oracle(registry, src, dst, ts, lab):
    hi = registry.folded
    window_oracle = recompute_window(NUM_NODES, WINDOW, NUM_BUCKETS,
                                     src[:hi], dst[:hi], ts[:hi], lab[:hi])
    assert np.array_equal(registry["window"].counts, window_oracle.counts)
    assert np.array_equal(registry["window"].label_sums,
                          window_oracle.label_sums)
    velocity_oracle = recompute_velocity(NUM_NODES, src[:hi], dst[:hi], ts[:hi])
    assert np.array_equal(registry["velocity"].out_degree,
                          velocity_oracle.out_degree)
    assert np.array_equal(registry["velocity"].delta_sum,
                          velocity_oracle.delta_sum)


class TestSingleProcessRace:
    """Writer and reader handles in one process (deterministic interleaving)."""

    def test_advance_past_unpublished_rows_raises_then_succeeds(self, tmp_path):
        src, dst, ts, ef, lab = make_events(150)
        writer = EventStore.create_mmap(tmp_path / "events",
                                        num_nodes=NUM_NODES,
                                        edge_feature_dim=3)
        writer.append_batch(src[:100], dst[:100], ts[:100], ef[:100], lab[:100])

        reader = EventStore.open_mmap(tmp_path / "events", mode="r")
        registry = make_registry(reader)
        assert registry.advance() == 100  # follows the published prefix

        # The race: the registry is asked for rows the writer hasn't
        # published.  Must be a loud error, not a silently clamped fold.
        with pytest.raises(StaleStoreError, match="150.*100 rows are visible"):
            registry.advance(150)
        assert registry.folded == 100  # state untouched by the failed advance
        assert_matches_oracle(registry, src, dst, ts, lab)

        # Writer publishes; the same advance now folds [100, 150) exactly once.
        writer.append_batch(src[100:], dst[100:], ts[100:], ef[100:], lab[100:])
        assert registry.advance(150) == 150
        assert_matches_oracle(registry, src, dst, ts, lab)
        writer.close()
        reader.close()

    def test_advance_refreshes_to_follow_writer(self, tmp_path):
        """advance(None) picks up newly published rows without explicit refresh."""
        src, dst, ts, ef, lab = make_events(90, seed=2)
        writer = EventStore.create_mmap(tmp_path / "events",
                                        num_nodes=NUM_NODES,
                                        edge_feature_dim=3)
        reader = EventStore.open_mmap(tmp_path / "events", mode="r")
        registry = make_registry(reader)
        assert registry.advance() == 0
        for stop in (30, 60, 90):
            start = stop - 30
            writer.append_batch(src[start:stop], dst[start:stop],
                                ts[start:stop], ef[start:stop], lab[start:stop])
            assert registry.advance() == stop
            assert_matches_oracle(registry, src, dst, ts, lab)
        writer.close()
        reader.close()


def _reader_main(handle, commands, results):
    """Child process: build a registry over the attached store, follow orders."""
    try:
        store = handle.open()
        registry = make_registry(store)
        registry.advance()
        results.put(("visible", registry.folded))
        while True:
            command = commands.get(timeout=60)
            if command is None:
                break
            kind, hi = command
            if kind == "expect-stale":
                try:
                    registry.advance(hi)
                    results.put(("error", f"advance({hi}) did not raise"))
                except StaleStoreError as exc:
                    results.put(("stale", str(exc)))
            else:  # "advance"
                registry.advance(hi)
                results.put(("folded", registry.folded,
                             registry["window"].counts,
                             registry["velocity"].delta_sum))
        store.close()
    except Exception as exc:  # pragma: no cover - surfaced via the queue
        results.put(("error", repr(exc)))


def _writer_main(path, total, go):
    """Child process: append ``total`` events two at a time, as fast as it can."""
    src, dst, ts, ef, lab = make_events(total, seed=5)
    store = EventStore.open_mmap(path, mode="r+")
    go.wait(60)
    for start in range(0, total, 2):
        stop = start + 2
        store.append_batch(src[start:stop], dst[start:stop], ts[start:stop],
                           ef[start:stop], lab[start:stop])
    store.close()


class TestWriterReaderProcessPair:
    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    def test_reader_polls_header_through_capacity_doublings(self, tmp_path,
                                                            start_method):
        """Every refresh() sees a consistent (num_events, capacity,
        last_timestamp) triple while the writer publishes ~5000 times and
        grows the columns 8 -> 1024 -> ... -> 16384."""
        if start_method not in mp.get_all_start_methods():
            pytest.skip(f"{start_method} start method unavailable")
        total = 10_000
        _, _, ts, _, _ = make_events(total, seed=5)
        EventStore.create_mmap(tmp_path / "events", num_nodes=NUM_NODES,
                               edge_feature_dim=3, capacity=8).close()
        reader = EventStore.open_mmap(tmp_path / "events", mode="r")

        ctx = mp.get_context(start_method)
        go = ctx.Event()
        proc = ctx.Process(target=_writer_main,
                           args=(str(tmp_path / "events"), total, go))
        proc.start()
        capacities, polls, seen = {reader.capacity}, 0, 0
        try:
            go.set()
            deadline = time.monotonic() + 120
            while seen < total:
                assert time.monotonic() < deadline, f"stuck at {seen} events"
                reader.refresh()
                polls += 1
                assert seen <= reader.num_events <= reader.capacity
                seen = reader.num_events
                assert seen % 2 == 0  # whole batches only
                if seen:
                    assert reader.timestamps[seen - 1] == reader.last_timestamp
                    assert reader.last_timestamp == ts[seen - 1]
                capacities.add(reader.capacity)
        finally:
            proc.join(timeout=60)
            if proc.is_alive():  # pragma: no cover - hang diagnostics
                proc.terminate()
        assert proc.exitcode == 0
        assert np.array_equal(reader.timestamps, ts)
        # 8 -> 1024 -> 2048 -> 4096 -> 8192 -> 16384; how many of the middle
        # remaps this reader caught depends on scheduling, the ends do not.
        assert {8, 16384} <= capacities <= {8, 1024, 2048, 4096, 8192, 16384}
        assert polls > 1
        reader.close()

    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    def test_reader_process_sees_stale_then_published(self, tmp_path,
                                                      start_method):
        if start_method not in mp.get_all_start_methods():
            pytest.skip(f"{start_method} start method unavailable")
        src, dst, ts, ef, lab = make_events(160, seed=7)
        writer = EventStore.create_mmap(tmp_path / "events",
                                        num_nodes=NUM_NODES,
                                        edge_feature_dim=3)
        writer.append_batch(src[:80], dst[:80], ts[:80], ef[:80], lab[:80])

        ctx = mp.get_context(start_method)
        commands, results = ctx.Queue(), ctx.Queue()
        proc = ctx.Process(target=_reader_main,
                           args=(writer.handle(), commands, results))
        proc.start()
        try:
            assert results.get(timeout=60) == ("visible", 80)

            # Reader races ahead of the writer: loud StaleStoreError.
            commands.put(("expect-stale", 160))
            kind, message = results.get(timeout=60)
            assert kind == "stale"
            assert "160" in message and "80 rows are visible" in message

            # Writer publishes; the identical advance succeeds and the
            # reader's incremental state equals the one-shot oracle.
            writer.append_batch(src[80:], dst[80:], ts[80:], ef[80:], lab[80:])
            commands.put(("advance", 160))
            kind, folded, counts, delta_sum = results.get(timeout=60)
            assert (kind, folded) == ("folded", 160)
            window_oracle = recompute_window(NUM_NODES, WINDOW, NUM_BUCKETS,
                                             src, dst, ts, lab)
            assert np.array_equal(counts, window_oracle.counts)
            velocity_oracle = recompute_velocity(NUM_NODES, src, dst, ts)
            assert np.array_equal(delta_sum, velocity_oracle.delta_sum)

            commands.put(None)
        finally:
            proc.join(timeout=30)
            if proc.is_alive():  # pragma: no cover - hang diagnostics
                proc.terminate()
        assert proc.exitcode == 0
        writer.close()
