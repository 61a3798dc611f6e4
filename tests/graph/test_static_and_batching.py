"""Tests for the static graph view, DTDG snapshots and event batching."""

import numpy as np
import pytest

from repro.graph.batching import EventBatch, iterate_batches, num_batches
from repro.graph.snapshots import build_snapshots, snapshot_boundaries
from repro.graph.static_graph import StaticGraph
from repro.storage import EventStore, GraphView


def small_temporal_graph():
    return GraphView(EventStore.from_arrays(
        src=[0, 0, 1, 2], dst=[1, 1, 2, 3],   # (0, 1) is a repeated pair
        timestamps=[1.0, 2.0, 3.0, 4.0],
        edge_features=[[1.0, 0.0], [3.0, 0.0], [0.0, 1.0], [0.0, 2.0]],
        num_nodes=4))


class TestStaticGraph:
    def test_collapses_multi_edges(self):
        static = StaticGraph.from_temporal(small_temporal_graph())
        assert static.num_edges == 3
        assert static.edge_weight(0, 1) == 2
        assert static.edge_weight(1, 0) == 2

    def test_neighbors_and_degree(self):
        static = StaticGraph.from_temporal(small_temporal_graph())
        np.testing.assert_array_equal(static.neighbors(1), [0, 2])
        assert static.degree(1) == 2
        assert static.degree(3) == 1

    def test_mean_edge_feature(self):
        static = StaticGraph.from_temporal(small_temporal_graph())
        np.testing.assert_allclose(static.mean_edge_feature(0, 1), [2.0, 0.0])
        np.testing.assert_allclose(static.mean_edge_feature(0, 3), [0.0, 0.0])

    def test_adjacency_matrix(self):
        static = StaticGraph.from_temporal(small_temporal_graph())
        adjacency = static.adjacency_matrix()
        assert adjacency[0, 1] == 1.0 and adjacency[1, 0] == 1.0
        assert adjacency[0, 3] == 0.0
        weighted = static.adjacency_matrix(weighted=True)
        assert weighted[0, 1] == 2.0

    def test_normalized_adjacency_rows(self):
        static = StaticGraph.from_temporal(small_temporal_graph())
        normalized = static.normalized_adjacency()
        assert normalized.shape == (4, 4)
        # Symmetric normalisation keeps the matrix symmetric.
        np.testing.assert_allclose(normalized, normalized.T, atol=1e-12)

    def test_edges_listing(self):
        static = StaticGraph.from_temporal(small_temporal_graph())
        edges = static.edges()
        assert edges.shape == (3, 2)
        assert (edges[:, 0] <= edges[:, 1]).all()

    def test_sample_neighbors_isolated_node_returns_self(self):
        static = StaticGraph(num_nodes=3)
        out = static.sample_neighbors(1, 4, np.random.default_rng(0))
        np.testing.assert_array_equal(out, [1, 1, 1, 1])


class TestSnapshots:
    def test_boundaries_cover_timespan(self):
        graph = small_temporal_graph()
        bounds = snapshot_boundaries(graph, 3)
        assert len(bounds) == 4
        assert bounds[0] == 1.0 and bounds[-1] == 4.0

    def test_snapshots_partition_all_events(self):
        graph = small_temporal_graph()
        snapshots = build_snapshots(graph, 2)
        total_interactions = sum(
            sum(s.edge_weight(u, v) for u, v in s.edges()) for s in snapshots
        )
        assert total_interactions == graph.num_events

    def test_single_snapshot_equals_static_collapse(self):
        graph = small_temporal_graph()
        snapshot = build_snapshots(graph, 1)[0]
        assert snapshot.num_edges == StaticGraph.from_temporal(graph).num_edges

    def test_rejects_nonpositive_count(self):
        with pytest.raises(ValueError):
            build_snapshots(small_temporal_graph(), 0)

    def test_empty_graph_boundaries(self):
        bounds = snapshot_boundaries(GraphView(EventStore(2, 1)), 2)
        assert len(bounds) == 3


class TestBatching:
    def test_num_batches(self):
        assert num_batches(10, 3) == 4
        assert num_batches(9, 3) == 3
        with pytest.raises(ValueError):
            num_batches(10, 0)

    def test_iterate_covers_all_events_once(self):
        graph = small_temporal_graph()
        batches = list(iterate_batches(graph, 3))
        assert sum(len(b) for b in batches) == graph.num_events
        all_ids = np.concatenate([b.edge_ids for b in batches])
        np.testing.assert_array_equal(all_ids, np.arange(graph.num_events))

    def test_range_restriction(self):
        graph = small_temporal_graph()
        batches = list(iterate_batches(graph, 2, start=1, stop=3))
        assert sum(len(b) for b in batches) == 2
        assert batches[0].edge_ids[0] == 1

    def test_batch_properties(self):
        graph = small_temporal_graph()
        batch = next(iterate_batches(graph, 10))
        assert batch.start_time == 1.0
        assert batch.end_time == 4.0
        np.testing.assert_array_equal(batch.nodes, [0, 1, 2, 3])

    def test_with_negatives_is_nondestructive(self):
        graph = small_temporal_graph()
        batch = next(iterate_batches(graph, 4))
        negatives = np.array([3, 3, 0, 0])
        augmented = batch.with_negatives(negatives)
        assert batch.negatives is None
        np.testing.assert_array_equal(augmented.negatives, negatives)

    def test_rejects_bad_batch_size(self):
        graph = small_temporal_graph()
        with pytest.raises(ValueError):
            list(iterate_batches(graph, 0))

    def test_empty_batch_times(self):
        batch = EventBatch(
            src=np.array([], dtype=np.int64), dst=np.array([], dtype=np.int64),
            timestamps=np.array([]), edge_features=np.zeros((0, 2)),
            labels=np.array([]), edge_ids=np.array([], dtype=np.int64),
        )
        assert batch.start_time == 0.0 and batch.end_time == 0.0
