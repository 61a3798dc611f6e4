"""Pins the storage subsystem against independently-built stores.

Every way of building an :class:`EventStore` — per-event appends, one bulk
load, arbitrary chunking, an mmap backing — must give byte-equal columns and
a byte-equal :class:`GraphView` adjacency; every slice of a view must answer
exactly like a store rebuilt from the same events; and a neighbour sampler
over a view must sample exactly what it samples over such a rebuilt store.
The adjacency reference is recomputed from first principles by the
incremental fold itself, which ``tests/storage/test_graph_view.py`` pins to a
brute-force per-node chronological build.
"""

import multiprocessing as mp

import numpy as np
import pytest

from repro.graph.neighbor_sampler import make_sampler
from repro.storage import EventStore, GraphView


def make_stream(n=250, num_nodes=30, dim=4, seed=5):
    rng = np.random.default_rng(seed)
    src = rng.integers(0, num_nodes, n)
    dst = rng.integers(0, num_nodes, n)
    ts = np.sort(rng.uniform(0.0, 80.0, n))
    ef = rng.normal(size=(n, dim))
    lab = rng.integers(0, 2, n).astype(np.float64)
    return src, dst, ts, ef, lab, num_nodes


def rebuilt(src, dst, ts, ef, lab, num_nodes) -> GraphView:
    """A fresh in-memory store over exactly these events, bulk-loaded."""
    return GraphView(EventStore.from_arrays(src, dst, ts, ef, lab,
                                            num_nodes=num_nodes))


def views_equal(a: GraphView, b: GraphView) -> None:
    assert a.num_events == b.num_events
    assert np.array_equal(a.src, b.src)
    assert np.array_equal(a.dst, b.dst)
    assert np.array_equal(a.timestamps, b.timestamps)
    assert np.array_equal(a.edge_features, b.edge_features)
    assert np.array_equal(a.labels, b.labels)
    for got, want in zip(a.csr_view(), b.csr_view()):
        assert np.array_equal(got, want)


class TestConstructionPaths:
    def test_per_event_equals_bulk(self):
        src, dst, ts, ef, lab, num_nodes = make_stream(120)
        incremental = GraphView(EventStore(num_nodes, ef.shape[1]))
        for i in range(len(src)):
            edge_ids = incremental.store.append_batch(
                src[i:i + 1], dst[i:i + 1], ts[i:i + 1], ef[i:i + 1],
                lab[i:i + 1])
            assert edge_ids.tolist() == [i]
            # Fold after every event, as a per-event consumer would.
            incremental.adjacency()
        views_equal(incremental, rebuilt(src, dst, ts, ef, lab, num_nodes))

    def test_chunked_equals_bulk(self):
        src, dst, ts, ef, lab, num_nodes = make_stream()
        chunked = GraphView(EventStore(num_nodes, ef.shape[1]))
        for start in range(0, len(src), 37):
            stop = min(start + 37, len(src))
            chunked.store.append_batch(src[start:stop], dst[start:stop],
                                       ts[start:stop], ef[start:stop],
                                       lab[start:stop])
            chunked.adjacency()
        views_equal(chunked, rebuilt(src, dst, ts, ef, lab, num_nodes))

    def test_mmap_store_equals_memory_store(self, tmp_path):
        src, dst, ts, ef, lab, num_nodes = make_stream()
        store = EventStore.create_mmap(tmp_path / "events",
                                       num_nodes=num_nodes,
                                       edge_feature_dim=ef.shape[1])
        store.append_batch(src, dst, ts, ef, lab)
        views_equal(GraphView(store), rebuilt(src, dst, ts, ef, lab, num_nodes))
        store.close()


class TestErrorContract:
    def test_single_event_errors(self):
        store = EventStore(5, 2)
        store.append_batch([0], [1], [5.0], np.zeros((1, 2)))
        with pytest.raises(ValueError, match="chronological order"):
            store.append_batch([0], [1], [4.0], np.zeros((1, 2)))
        with pytest.raises(IndexError, match="node id out of range"):
            store.append_batch([0], [5], [6.0], np.zeros((1, 2)))
        with pytest.raises(ValueError, match="edge feature dim mismatch"):
            store.append_batch([0], [1], [6.0], np.zeros((1, 3)))
        assert store.num_events == 1  # a rejected block appends nothing


class TestSlicingEquivalence:
    """Slices answer like stores rebuilt from the same events."""

    def test_slice_time_matches_rebuilt(self):
        src, dst, ts, ef, lab, num_nodes = make_stream()
        view = rebuilt(src, dst, ts, ef, lab, num_nodes)
        t0, t1 = 20.0, 60.0
        mask = (ts >= t0) & (ts < t1)
        views_equal(view.slice_time(t0, t1),
                    rebuilt(src[mask], dst[mask], ts[mask], ef[mask],
                            lab[mask], num_nodes))

    def test_slice_events_matches_rebuilt(self):
        src, dst, ts, ef, lab, num_nodes = make_stream()
        view = rebuilt(src, dst, ts, ef, lab, num_nodes)
        views_equal(view.slice_events(40, 180),
                    rebuilt(src[40:180], dst[40:180], ts[40:180], ef[40:180],
                            lab[40:180], num_nodes))

    def test_node_slice_matches_rebuilt(self):
        src, dst, ts, ef, lab, num_nodes = make_stream()
        view = rebuilt(src, dst, ts, ef, lab, num_nodes)
        nodes = np.asarray([1, 4, 9])
        mask = np.isin(src, nodes) | np.isin(dst, nodes)
        views_equal(view.node_slice(nodes),
                    rebuilt(src[mask], dst[mask], ts[mask], ef[mask],
                            lab[mask], num_nodes))


class TestSamplingEquivalence:
    """Samplers answer identically over views and over rebuilt stores."""

    @pytest.mark.parametrize("strategy", ["recent", "uniform", "time_weighted"])
    @pytest.mark.parametrize("window", [(0, 250), (40, 180)])
    def test_sampler_over_view_matches_rebuilt(self, strategy, window):
        src, dst, ts, ef, lab, num_nodes = make_stream(seed=9)
        lo, hi = window
        view = rebuilt(src, dst, ts, ef, lab, num_nodes).slice_events(lo, hi)
        reference = rebuilt(src[lo:hi], dst[lo:hi], ts[lo:hi], ef[lo:hi],
                            lab[lo:hi], num_nodes)
        rng = np.random.default_rng(0)
        nodes = rng.integers(0, num_nodes, 25)
        times = rng.uniform(0.0, 80.0, 25)
        a = make_sampler(strategy, view, num_neighbors=5, seed=7,
                         stateless=True).sample_many(nodes, times)
        b = make_sampler(strategy, reference, num_neighbors=5, seed=7,
                         stateless=True).sample_many(nodes, times)
        assert np.array_equal(a.neighbors, b.neighbors)
        assert np.array_equal(a.edge_ids, b.edge_ids)
        assert np.array_equal(a.timestamps, b.timestamps)
        assert np.array_equal(a.mask, b.mask)

    def test_extended_prefix_view_matches_full_build(self):
        """The serving worker read path: extend_to(n) == a store built from n events."""
        src, dst, ts, ef, lab, num_nodes = make_stream(seed=13)
        store = EventStore.from_arrays(src, dst, ts, ef, lab,
                                       num_nodes=num_nodes)
        view = GraphView(store, 0, 0)
        for prefix in (50, 120, 250):
            view.extend_to(prefix)
            reference = rebuilt(src[:prefix], dst[:prefix], ts[:prefix],
                                ef[:prefix], lab[:prefix], num_nodes)
            for got, want in zip(view.csr_view(), reference.csr_view()):
                assert np.array_equal(got, want)


class TestCrossProcessAttach:
    """fork and spawn children attach the mmap store and see identical data."""

    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    def test_child_process_sees_identical_graph(self, tmp_path, start_method):
        if start_method not in mp.get_all_start_methods():
            pytest.skip(f"{start_method} start method unavailable")
        src, dst, ts, ef, lab, num_nodes = make_stream(100)
        store = EventStore.create_mmap(tmp_path / "events",
                                       num_nodes=num_nodes,
                                       edge_feature_dim=ef.shape[1])
        store.append_batch(src, dst, ts, ef, lab)
        expected_csr = GraphView(store).csr_view()

        ctx = mp.get_context(start_method)
        result = ctx.Queue()
        proc = ctx.Process(target=_check_attached_store,
                           args=(store.handle(), src, dst, ts, ef, lab,
                                 expected_csr, result))
        proc.start()
        try:
            assert result.get(timeout=60) == "ok"
        finally:
            proc.join(timeout=30)
        assert proc.exitcode == 0
        store.close()


def _check_attached_store(handle, src, dst, ts, ef, lab, expected_csr, result):
    try:
        store = handle.open()
        assert np.array_equal(store.src, src)
        assert np.array_equal(store.dst, dst)
        assert np.array_equal(store.timestamps, ts)
        assert np.array_equal(store.edge_features, ef)
        assert np.array_equal(store.labels, lab)
        for got, want in zip(GraphView(store).csr_view(), expected_csr):
            assert np.array_equal(got, want)
        store.close()
        result.put("ok")
    except Exception as exc:  # pragma: no cover - diagnostic path
        result.put(f"child failed: {exc!r}")
