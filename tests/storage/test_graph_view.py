"""GraphView: zero-copy slice trackers and the incremental CSR index."""

import numpy as np
import pytest

from repro.storage import CsrIndex, EventStore, GraphView


def make_store(n=100, num_nodes=20, dim=3, seed=1):
    rng = np.random.default_rng(seed)
    src = rng.integers(0, num_nodes, n)
    dst = rng.integers(0, num_nodes, n)
    ts = np.sort(rng.uniform(0.0, 50.0, n))
    ef = rng.normal(size=(n, dim))
    lab = rng.integers(0, 2, n).astype(np.float64)
    store = EventStore(num_nodes, dim)
    store.append_batch(src, dst, ts, ef, lab)
    return store


def build_simple_view() -> GraphView:
    """Four events on five nodes, one repeated pair, appended one by one."""
    view = GraphView(EventStore(num_nodes=5, edge_feature_dim=3))
    for src, dst, t, feature in ((0, 1, 1.0, [1, 0, 0]), (1, 2, 2.0, [0, 1, 0]),
                                 (0, 2, 3.0, [0, 0, 1]), (0, 1, 4.0, [1, 1, 0])):
        view.store.append_batch([src], [dst], [t], [feature])
    return view


def brute_force_csr(src, dst, timestamps, num_nodes):
    """Per-node chronological adjacency, src entry before dst entry per event."""
    adj = [[] for _ in range(num_nodes)]
    for e, (s, d, t) in enumerate(zip(src, dst, timestamps)):
        adj[int(s)].append((int(d), e, float(t)))
        adj[int(d)].append((int(s), e, float(t)))
    indptr = np.zeros(num_nodes + 1, dtype=np.int64)
    neighbors, edge_ids, times = [], [], []
    for v in range(num_nodes):
        indptr[v + 1] = indptr[v] + len(adj[v])
        for nb, e, t in adj[v]:
            neighbors.append(nb)
            edge_ids.append(e)
            times.append(t)
    return (indptr, np.asarray(neighbors, dtype=np.int64),
            np.asarray(edge_ids, dtype=np.int64), np.asarray(times))


class TestCsrIndex:
    def test_incremental_matches_brute_force(self):
        store = make_store(200)
        index = CsrIndex(store.num_nodes)
        for start in range(0, 200, 17):
            stop = min(start + 17, 200)
            index.extend(store.src[start:stop], store.dst[start:stop],
                         store.timestamps[start:stop], first_edge_id=start)
        expected = brute_force_csr(store.src, store.dst, store.timestamps,
                                   store.num_nodes)
        for got, want in zip(index.view(), expected):
            assert np.array_equal(got, want)

    def test_one_shot_equals_incremental(self):
        store = make_store(150)
        one_shot = CsrIndex(store.num_nodes)
        one_shot.extend(store.src, store.dst, store.timestamps, first_edge_id=0)
        incremental = CsrIndex(store.num_nodes)
        for start in range(0, 150, 1):
            incremental.extend(store.src[start:start + 1],
                               store.dst[start:start + 1],
                               store.timestamps[start:start + 1],
                               first_edge_id=start)
        for got, want in zip(incremental.view(), one_shot.view()):
            assert np.array_equal(got, want)

    def test_every_event_contributes_two_entries(self):
        # Self-loops included: an event (v, v) is both v's out- and in-entry.
        src = np.asarray([0, 2, 2, 1], dtype=np.int64)
        dst = np.asarray([1, 2, 0, 1], dtype=np.int64)
        index = CsrIndex(3)
        index.extend(src, dst, np.arange(4, dtype=np.float64), 0)
        assert index.num_entries == 8
        assert index.degrees.tolist() == [2, 3, 3]
        indptr, neighbors, edge_ids, _ = index.view()
        assert indptr[-1] == 8
        assert neighbors[indptr[2]:indptr[3]].tolist() == [2, 2, 0]
        assert edge_ids[indptr[2]:indptr[3]].tolist() == [1, 1, 2]


class TestZeroCopyColumns:
    def test_live_view_columns_share_store_memory(self):
        store = make_store()
        view = GraphView(store)
        assert np.shares_memory(view.src, store.src)
        assert np.shares_memory(view.timestamps, store.timestamps)
        assert np.shares_memory(view.edge_features, store.edge_features)

    def test_range_view_columns_share_store_memory(self):
        store = make_store()
        view = GraphView(store, 10, 60)
        assert view.num_events == 50
        assert np.shares_memory(view.src, store.src)
        assert np.array_equal(view.src, store.src[10:60])

    def test_slice_time_is_contiguous_range(self):
        store = make_store()
        view = GraphView(store)
        sliced = view.slice_time(10.0, 30.0)
        mask = (store.timestamps >= 10.0) & (store.timestamps < 30.0)
        assert np.array_equal(sliced.timestamps, store.timestamps[mask])
        assert np.shares_memory(sliced.timestamps, store.timestamps)

    def test_slice_events_clamps(self):
        store = make_store()
        view = GraphView(store)
        assert GraphView(store).slice_events(-5, 10).num_events == 10
        assert view.slice_events(90, 500).num_events == 10
        assert view.slice_events(50, 40).num_events == 0

    def test_nested_slicing_composes(self):
        store = make_store()
        outer = GraphView(store).slice_events(20, 80)
        inner = outer.slice_events(10, 30)
        assert np.array_equal(inner.src, store.src[30:50])
        assert np.shares_memory(inner.src, store.src)

    def test_selection_view_gathers(self):
        store = make_store()
        view = GraphView(store)
        picked = view.select(np.asarray([3, 7, 11]))
        assert picked.num_events == 3
        assert np.array_equal(picked.timestamps,
                              store.timestamps[[3, 7, 11]])

    def test_select_rejects_unsorted_and_out_of_range(self):
        view = GraphView(make_store())
        with pytest.raises(ValueError):
            view.select(np.asarray([5, 3]))
        with pytest.raises(IndexError):
            view.select(np.asarray([0, 1000]))

    def test_node_slice(self):
        store = make_store()
        view = GraphView(store)
        nodes = np.asarray([2, 5])
        sliced = view.node_slice(nodes)
        mask = np.isin(store.src, nodes) | np.isin(store.dst, nodes)
        assert np.array_equal(sliced.src, store.src[mask])
        assert np.array_equal(sliced.timestamps, store.timestamps[mask])


class TestQueries:
    def test_node_events_matches_brute_force(self):
        store = make_store(300, seed=7)
        view = GraphView(store)
        indptr, nb, ed, tm = brute_force_csr(store.src, store.dst,
                                             store.timestamps, store.num_nodes)
        for node in range(store.num_nodes):
            got_nb, got_ed, got_tm = view.node_events(node)
            assert np.array_equal(got_nb, nb[indptr[node]:indptr[node + 1]])
            assert np.array_equal(got_ed, ed[indptr[node]:indptr[node + 1]])
            assert np.array_equal(got_tm, tm[indptr[node]:indptr[node + 1]])

    def test_node_events_before_cutoff(self):
        store = make_store(200, seed=3)
        view = GraphView(store)
        cutoff = float(np.median(store.timestamps))
        for node in (0, 3, 9):
            _, _, strict_times = view.node_events(node, before=cutoff)
            assert np.all(strict_times < cutoff)
            _, _, loose_times = view.node_events(node, before=cutoff, strict=False)
            assert np.all(loose_times <= cutoff)

    def test_out_of_range_node_is_empty(self):
        view = GraphView(make_store())
        nb, ed, tm = view.node_events(-1)
        assert len(nb) == len(ed) == len(tm) == 0
        assert view.degree(9999) == 0

    def test_degree(self):
        store = make_store()
        view = GraphView(store)
        for node in range(store.num_nodes):
            expected = int(np.sum(store.src == node) + np.sum(store.dst == node))
            assert view.degree(node) == expected

    def test_active_nodes(self):
        store = make_store(30, num_nodes=50)
        view = GraphView(store)
        expected = np.unique(np.concatenate([store.src, store.dst]))
        assert np.array_equal(view.active_nodes(), expected)

    def test_edge_features_for_with_padding(self):
        store = make_store()
        view = GraphView(store)
        ids = np.asarray([0, -1, 5])
        out = view.edge_features_for(ids)
        assert np.array_equal(out[0], store.edge_features[0])
        assert np.array_equal(out[1], np.zeros(store.edge_feature_dim))
        assert np.array_equal(out[2], store.edge_features[5])

    def test_range_view_edge_ids_are_view_local(self):
        store = make_store()
        view = GraphView(store, 50, 100)
        _, _, edge_ids, _ = view.csr_view()
        assert edge_ids.min() >= 0
        assert edge_ids.max() < 50


class TestLiveAndExtend:
    def test_live_view_tracks_appends(self):
        store = EventStore(10, 0)
        view = GraphView(store)
        assert view.num_events == 0
        store.append_batch([0, 1], [1, 2], [0.0, 1.0], np.zeros((2, 0)))
        assert view.num_events == 2
        assert view.degree(1) == 2
        store.append_batch([1], [3], [2.0], np.zeros((1, 0)))
        assert view.num_events == 3
        assert view.degree(1) == 3  # CSR folded incrementally

    def test_extend_to_advances_frozen_prefix(self):
        store = EventStore(10, 0)
        store.append_batch([0, 1, 2], [1, 2, 3], [0.0, 1.0, 2.0], np.zeros((3, 0)))
        view = GraphView(store, 0, 1)
        assert view.num_events == 1
        view.extend_to(3)
        assert view.num_events == 3
        assert view.degree(2) == 2

    def test_followed_view_answers_every_node(self):
        """A worker's view, advanced chunk by chunk, serves the whole graph."""
        store = make_store(200, seed=11)
        full = GraphView(store)
        view = GraphView(store, 0, 0)
        for stop in (0, 37, 38, 120, 200):
            view.extend_to(stop)
        for node in range(store.num_nodes):
            assert view.degree(node) == full.degree(node)
            for got, want in zip(view.node_events(node),
                                 full.node_events(node)):
                assert np.array_equal(got, want)

    def test_extend_to_cannot_shrink(self):
        store = EventStore(10, 0)
        store.append_batch([0, 1], [1, 2], [0.0, 1.0], np.zeros((2, 0)))
        view = GraphView(store, 0, 2)
        with pytest.raises(ValueError, match="shrink"):
            view.extend_to(1)

    def test_selection_views_cannot_extend(self):
        store = make_store()
        picked = GraphView(store).select(np.asarray([0, 1]))
        with pytest.raises(RuntimeError):
            picked.extend_to(10)



class TestSimpleGraph:
    """Exact answers on a hand-checkable multigraph."""

    def test_degree_counts_both_directions(self):
        view = build_simple_view()
        assert [view.degree(node) for node in range(5)] == [3, 3, 2, 0, 0]

    def test_degree_before_time(self):
        view = build_simple_view()
        assert view.degree(0, before=3.0) == 1
        assert view.degree(0, before=3.5) == 2

    def test_node_events_strict_and_inclusive(self):
        view = build_simple_view()
        neighbors, edge_ids, times = view.node_events(0, before=3.0, strict=True)
        assert neighbors.tolist() == [1]
        assert edge_ids.tolist() == [0]
        assert times.tolist() == [1.0]
        neighbors, edge_ids, _ = view.node_events(0, before=3.0, strict=False)
        assert neighbors.tolist() == [1, 2]
        assert edge_ids.tolist() == [0, 2]

    def test_in_range_node_without_events_is_empty(self):
        neighbors, edge_ids, times = build_simple_view().node_events(4)
        assert len(neighbors) == len(edge_ids) == len(times) == 0

    def test_out_of_range_ids_have_no_history(self):
        """-1 (the samplers' padding sentinel) and >= num_nodes are empty."""
        view = build_simple_view()
        for node in (-1, view.num_nodes, view.num_nodes + 7):
            assert view.degree(node) == 0
            neighbors, edge_ids, times = view.node_events(node)
            assert len(neighbors) == len(edge_ids) == len(times) == 0

    def test_events_are_chronological_per_node(self):
        view = build_simple_view()
        for node in range(view.num_nodes):
            _, edge_ids, times = view.node_events(node)
            assert np.all(np.diff(times) >= 0)
            assert np.all(np.diff(edge_ids) > 0)

    def test_multigraph_keeps_repeated_pairs(self):
        neighbors, edge_ids, _ = build_simple_view().node_events(0)
        assert neighbors.tolist() == [1, 2, 1]
        assert edge_ids.tolist() == [0, 2, 3]

    def test_single_and_bulk_appends_interleave(self):
        """One-event and multi-event blocks fold into one live index."""
        view = GraphView(EventStore(num_nodes=6, edge_feature_dim=1))
        view.store.append_batch([0, 1], [1, 2], [1.0, 2.0], np.zeros((2, 1)))
        assert view.degree(1) == 2
        view.store.append_batch([2], [3], [3.0], [[0.0]])
        ids = view.store.append_batch([3, 0], [4, 1], [4.0, 5.0],
                                      np.zeros((2, 1)))
        assert ids.tolist() == [3, 4]
        neighbors, _, times = view.node_events(3)
        assert neighbors.tolist() == [2, 4]
        assert times.tolist() == [3.0, 4.0]
        assert view.num_events == 5
        assert view.node_events(0)[0].tolist() == [1, 1]

    def test_slices_share_every_column_with_the_store(self):
        view = build_simple_view()
        store = view.store
        for sliced in (view.slice_time(2.0, 4.0), view.slice_events(1, 3)):
            assert sliced.num_events == 2
            for name in ("src", "dst", "timestamps", "edge_features", "labels"):
                assert np.shares_memory(getattr(sliced, name),
                                        getattr(store, name))

    def test_slice_keeps_labels_and_features(self):
        view = GraphView(EventStore(3, 1))
        view.store.append_batch([0, 1], [1, 2], [1.0, 2.0], [[0.5], [0.7]],
                                labels=[1.0, 0.0])
        sliced = view.slice_events(0, 1)
        assert sliced.labels.tolist() == [1.0]
        assert sliced.edge_features.tolist() == [[0.5]]

    def test_slices_stay_frozen_while_the_store_grows(self):
        view = build_simple_view()
        sliced = view.slice_time(1.0, 3.0)
        view.store.append_batch([2], [3], [5.0], [[1, 1, 1]])
        assert view.num_events == 5
        assert sliced.num_events == 2
        assert sliced.timestamps.tolist() == [1.0, 2.0]

    def test_nested_slices_share_root_storage(self):
        view = build_simple_view()
        nested = view.slice_events(0, 3).slice_events(1, 3)
        assert np.shares_memory(nested.timestamps, view.store.timestamps)
        assert nested.timestamps.tolist() == [2.0, 3.0]
