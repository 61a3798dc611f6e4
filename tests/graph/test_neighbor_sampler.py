"""Tests for temporal neighbour sampling strategies."""

import numpy as np
import pytest

from repro.graph.neighbor_sampler import (
    MostRecentNeighborSampler,
    NeighborSample,
    TimeWeightedNeighborSampler,
    UniformNeighborSampler,
    make_sampler,
)
from repro.storage import EventStore, GraphView


def chain_graph(num_events=20):
    """Node 0 interacts with nodes 1..num_events at times 1..num_events."""
    times = np.arange(1, num_events + 1, dtype=np.float64)
    return GraphView(EventStore.from_arrays(
        np.zeros(num_events, dtype=np.int64), np.arange(1, num_events + 1),
        times, times[:, None], num_nodes=num_events + 1))


class TestNeighborSample:
    def test_empty_sample(self):
        sample = NeighborSample.empty(4)
        assert sample.num_valid == 0
        assert sample.neighbors.shape == (4,)
        assert not sample.mask.any()


class TestMostRecentSampler:
    def test_returns_most_recent_events(self):
        sampler = MostRecentNeighborSampler(chain_graph(), num_neighbors=5)
        sample = sampler.sample(0, time=21.0)
        assert sample.num_valid == 5
        assert set(sample.neighbors[sample.mask]) == {16, 17, 18, 19, 20}

    def test_respects_time_cutoff(self):
        sampler = MostRecentNeighborSampler(chain_graph(), num_neighbors=5)
        sample = sampler.sample(0, time=10.0)
        # Events at t >= 10 are excluded (strictly before).
        assert sample.timestamps[sample.mask].max() == 9.0

    def test_pads_when_history_is_short(self):
        sampler = MostRecentNeighborSampler(chain_graph(3), num_neighbors=10)
        sample = sampler.sample(0, time=100.0)
        assert sample.num_valid == 3
        assert (~sample.mask).sum() == 7
        np.testing.assert_array_equal(sample.neighbors[~sample.mask], [-1] * 7)

    def test_unknown_node_gives_empty(self):
        sampler = MostRecentNeighborSampler(chain_graph(), num_neighbors=4)
        assert sampler.sample(5, time=0.5).num_valid == 0

    def test_rejects_nonpositive_k(self):
        with pytest.raises(ValueError):
            MostRecentNeighborSampler(chain_graph(), num_neighbors=0)

    def test_sample_batch(self):
        sampler = MostRecentNeighborSampler(chain_graph(), num_neighbors=3)
        samples = sampler.sample_batch(np.array([0, 0]), np.array([5.0, 15.0]))
        assert len(samples) == 2
        assert samples[0].timestamps[samples[0].mask].max() < 5.0


class TestUniformSampler:
    def test_samples_without_replacement(self):
        sampler = UniformNeighborSampler(chain_graph(), num_neighbors=8, seed=0)
        sample = sampler.sample(0, time=21.0)
        valid = sample.neighbors[sample.mask]
        assert len(valid) == len(set(valid.tolist())) == 8

    def test_deterministic_with_seed(self):
        graph = chain_graph()
        s1 = UniformNeighborSampler(graph, num_neighbors=5, seed=42).sample(0, 21.0)
        s2 = UniformNeighborSampler(graph, num_neighbors=5, seed=42).sample(0, 21.0)
        np.testing.assert_array_equal(s1.neighbors, s2.neighbors)

    def test_covers_old_history_sometimes(self):
        sampler = UniformNeighborSampler(chain_graph(100), num_neighbors=10, seed=1)
        picks = set()
        for _ in range(20):
            sample = sampler.sample(0, time=101.0)
            picks.update(sample.neighbors[sample.mask].tolist())
        assert min(picks) <= 20  # uniform sampling reaches into old events


class TestTimeWeightedSampler:
    def test_prefers_recent_events(self):
        sampler = TimeWeightedNeighborSampler(chain_graph(200), num_neighbors=10,
                                              seed=0, decay=0.5)
        sample = sampler.sample(0, time=201.0)
        assert sample.timestamps[sample.mask].mean() > 150

    def test_rejects_bad_decay(self):
        with pytest.raises(ValueError):
            TimeWeightedNeighborSampler(chain_graph(), decay=0.0)


class TestMultiHop:
    def test_two_hop_expansion(self):
        graph = GraphView(EventStore.from_arrays(
            [1, 2, 0], [2, 3, 1], [1.0, 2.0, 3.0], np.zeros((3, 1)), num_nodes=6))
        sampler = MostRecentNeighborSampler(graph, num_neighbors=3)
        hops = sampler.multi_hop(0, time=4.0, num_hops=2)
        assert len(hops) == 2
        hop1 = set(hops[0].neighbors[hops[0].mask].tolist())
        assert hop1 == {1}
        hop2 = set(hops[1].neighbors[hops[1].mask].tolist())
        assert 2 in hop2  # neighbour of node 1 before t=3

    def test_multi_hop_with_isolated_node(self):
        sampler = MostRecentNeighborSampler(chain_graph(3), num_neighbors=2)
        hops = sampler.multi_hop(0, time=0.5, num_hops=3)
        assert len(hops) == 3
        assert all(h.num_valid == 0 for h in hops)


class TestFactory:
    def test_factory_builds_each_strategy(self):
        graph = chain_graph()
        assert isinstance(make_sampler("recent", graph), MostRecentNeighborSampler)
        assert isinstance(make_sampler("uniform", graph), UniformNeighborSampler)
        assert isinstance(make_sampler("time_weighted", graph), TimeWeightedNeighborSampler)

    def test_factory_rejects_unknown(self):
        with pytest.raises(ValueError):
            make_sampler("nope", chain_graph())


class TestGraphQuerySpy:
    def test_spy_sees_sample_many_over_a_bare_view(self, graph_query_spy):
        """The spy must see the read path serving workers use, or the
        zero-read assertions built on it prove nothing."""
        sampler = MostRecentNeighborSampler(chain_graph(), num_neighbors=3)
        sampler.sample_many(np.asarray([0, 5]), np.asarray([10.0, 10.0]))
        assert "adjacency" in graph_query_spy
