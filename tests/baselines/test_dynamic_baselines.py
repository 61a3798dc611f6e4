"""Tests for the dynamic baselines (TGN, TGAT, JODIE, DyRep) and their substrates."""

import numpy as np
import pytest

from repro.baselines import TGAT, TGN, DyRep, JODIE, NodeMemory
from repro.baselines.temporal_attention import TemporalAttentionLayer
from repro.graph.batching import iterate_batches
from repro.graph.neighbor_sampler import MostRecentNeighborSampler
from repro.nn.tensor import Tensor, no_grad
from repro.storage import EventStore, GraphView

DYNAMIC_MODELS = [
    ("jodie", lambda n, d: JODIE(n, d, seed=0)),
    ("dyrep", lambda n, d: DyRep(n, d, num_neighbors=3, seed=0)),
    ("tgn-1", lambda n, d: TGN(n, d, num_layers=1, num_neighbors=3, seed=0)),
    ("tgn-2", lambda n, d: TGN(n, d, num_layers=2, num_neighbors=2, seed=0)),
    ("tgat-1", lambda n, d: TGAT(n, d, num_layers=1, num_neighbors=3, seed=0)),
    ("tgat-2", lambda n, d: TGAT(n, d, num_layers=2, num_neighbors=2, seed=0)),
]


class TestNodeMemory:
    def test_set_and_get(self):
        memory = NodeMemory(5, 3)
        memory.set(np.array([1, 3]), np.ones((2, 3)), np.array([2.0, 4.0]))
        np.testing.assert_allclose(memory.get(np.array([1]))[0], np.ones(3))
        np.testing.assert_allclose(memory.get(np.array([0]))[0], np.zeros(3))

    def test_later_write_wins_for_duplicates(self):
        memory = NodeMemory(3, 2)
        memory.set(np.array([1, 1]), np.array([[1.0, 1.0], [2.0, 2.0]]),
                   np.array([1.0, 5.0]))
        np.testing.assert_allclose(memory.get(np.array([1]))[0], [2.0, 2.0])
        assert memory.last_update[1] == 5.0

    def test_time_since_update(self):
        memory = NodeMemory(3, 2)
        memory.set(np.array([0]), np.ones((1, 2)), np.array([10.0]))
        np.testing.assert_allclose(memory.time_since_update(np.array([0, 1]), 15.0),
                                   [5.0, 15.0])

    def test_snapshot_restore(self):
        memory = NodeMemory(3, 2)
        memory.set(np.array([0]), np.ones((1, 2)), np.array([1.0]))
        snapshot = memory.snapshot()
        memory.reset()
        memory.restore(snapshot)
        np.testing.assert_allclose(memory.get(np.array([0]))[0], np.ones(2))

    def test_validation(self):
        with pytest.raises(ValueError):
            NodeMemory(0, 2)
        memory = NodeMemory(3, 2)
        with pytest.raises(ValueError):
            memory.set(np.array([0]), np.ones((1, 3)), np.array([1.0]))


class TestTemporalAttentionLayer:
    def test_forward_shape(self, rng):
        layer = TemporalAttentionLayer(node_dim=6, edge_feature_dim=4, time_dim=8,
                                       output_dim=6, rng=rng)
        out = layer(
            Tensor(rng.normal(size=(3, 6))), np.array([10.0, 20.0, 30.0]),
            Tensor(rng.normal(size=(3, 5, 6))), rng.uniform(0, 10, size=(3, 5)),
            rng.normal(size=(3, 5, 4)), np.ones((3, 5), dtype=bool),
        )
        assert out.shape == (3, 6)

    def test_no_neighbors_falls_back_to_skip(self, rng):
        layer = TemporalAttentionLayer(node_dim=6, edge_feature_dim=4, time_dim=8,
                                       output_dim=6, rng=rng)
        out = layer(
            Tensor(rng.normal(size=(2, 6))), np.array([10.0, 20.0]),
            Tensor(np.zeros((2, 5, 6))), np.zeros((2, 5)),
            np.zeros((2, 5, 4)), np.zeros((2, 5), dtype=bool),
        )
        assert np.isfinite(out.data).all()

    def test_gather_neighbor_inputs(self, rng):
        graph = GraphView(EventStore.from_arrays(
            [0, 0], [1, 2], [1.0, 2.0], rng.normal(size=(2, 4)), num_nodes=6))
        sampler = MostRecentNeighborSampler(graph, num_neighbors=3)
        layer = TemporalAttentionLayer(node_dim=5, edge_feature_dim=4, time_dim=8,
                                       output_dim=5, rng=rng)
        repr_fn = lambda nodes, times: Tensor(np.ones((len(nodes), 5)))
        neighbor_repr, times, edge_feats, valid = layer.gather_neighbor_inputs(
            sampler, np.array([0, 3]), np.array([5.0, 5.0]), repr_fn, graph)
        assert neighbor_repr.shape == (2, 3, 5)
        assert edge_feats.shape == (2, 3, 4)
        assert valid[0].sum() == 2 and valid[1].sum() == 0


@pytest.mark.parametrize("name,factory", DYNAMIC_MODELS)
class TestDynamicBaselineContract:
    """Every dynamic baseline satisfies the TemporalEmbeddingModel contract."""

    def test_compute_embeddings_shapes(self, name, factory, event_batch_factory):
        model = factory(20, 8)
        batch = event_batch_factory(num_events=5, num_nodes=20, feature_dim=8)
        batch = batch.with_negatives(np.arange(5))
        with no_grad():
            embeddings = model.compute_embeddings(batch)
        assert embeddings.src.shape[0] == 5
        assert embeddings.dst.shape == embeddings.src.shape
        assert embeddings.neg.shape == embeddings.src.shape
        assert np.isfinite(embeddings.src.data).all()

    def test_link_logits_shape(self, name, factory, event_batch_factory):
        model = factory(20, 8)
        batch = event_batch_factory(num_events=4, num_nodes=20, feature_dim=8)
        with no_grad():
            embeddings = model.compute_embeddings(batch)
            logits = model.link_logits(embeddings.src, embeddings.dst)
        assert logits.shape == (4,)

    def test_update_and_reset_state(self, name, factory, event_batch_factory):
        model = factory(20, 8)
        batch = event_batch_factory(num_events=5, num_nodes=20, feature_dim=8)
        with no_grad():
            embeddings = model.compute_embeddings(batch)
            model.update_state(batch, embeddings)
        # State changed in some way: either memory vectors or an internal graph.
        state_changed = False
        if hasattr(model, "memory"):
            state_changed = state_changed or np.any(model.memory.vectors != 0)
        if hasattr(model, "graph"):
            state_changed = state_changed or model.graph.num_events > 0
        assert state_changed
        model.reset_state()
        if hasattr(model, "memory"):
            assert np.all(model.memory.vectors == 0)
        if hasattr(model, "graph"):
            assert model.graph.num_events == 0

    def test_training_step_produces_gradients(self, name, factory, event_batch_factory):
        from repro.nn import functional as F

        model = factory(20, 8)
        batch = event_batch_factory(num_events=5, num_nodes=20, feature_dim=8)
        batch = batch.with_negatives((np.arange(5) + 10) % 20)
        embeddings = model.compute_embeddings(batch)
        positive = model.link_logits(embeddings.src, embeddings.dst)
        negative = model.link_logits(embeddings.src, embeddings.neg)
        logits = F.concat([positive, negative], axis=0)
        targets = np.concatenate([np.ones(5), np.zeros(5)])
        loss = F.binary_cross_entropy_with_logits(logits, targets)
        loss.backward()
        assert any(p.grad is not None and np.any(p.grad != 0)
                   for p in model.link_decoder.parameters())


def embed_after_history(model, batch_factory, spy_calls):
    """Ingest one batch, then embed a later one; the graph reads of the latter."""
    first = batch_factory(num_events=8, num_nodes=20, feature_dim=8, seed=0)
    second = batch_factory(num_events=8, num_nodes=20, feature_dim=8, seed=1,
                           start_time=200.0)
    with no_grad():
        model.update_state(first, model.compute_embeddings(first))
        spy_calls.clear()
        model.compute_embeddings(second)
    return list(spy_calls)


class TestModelSpecificBehaviour:
    def test_jodie_does_not_query_graph(self, event_batch_factory,
                                        graph_query_spy):
        model = JODIE(20, 8, seed=0)
        assert embed_after_history(model, event_batch_factory, graph_query_spy) == []

    @pytest.mark.parametrize(
        "factory", [factory for name, factory in DYNAMIC_MODELS if name != "jodie"],
        ids=[name for name, _ in DYNAMIC_MODELS if name != "jodie"])
    def test_tgn_tgat_dyrep_query_graph(self, factory, event_batch_factory,
                                        graph_query_spy):
        """Their embeddings need the temporal neighbourhood on the decision path."""
        model = factory(20, 8)
        assert embed_after_history(model, event_batch_factory, graph_query_spy)

    def test_jodie_projection_changes_with_time(self, event_batch_factory):
        model = JODIE(20, 8, seed=0)
        batch = event_batch_factory(num_events=4, num_nodes=20, feature_dim=8)
        with no_grad():
            embeddings = model.compute_embeddings(batch)
            model.update_state(batch, embeddings)
            nodes = np.array([int(batch.src[0])])
            early = model.embed_nodes(nodes, time=batch.end_time + 1.0).data
            late = model.embed_nodes(nodes, time=batch.end_time + 1e6).data
        assert not np.allclose(early, late)

    def test_tgn_memory_updates_on_events(self, event_batch_factory):
        model = TGN(20, 8, num_layers=1, num_neighbors=3, seed=0)
        batch = event_batch_factory(num_events=5, num_nodes=20, feature_dim=8)
        with no_grad():
            embeddings = model.compute_embeddings(batch)
            model.update_state(batch, embeddings)
        touched = np.unique(np.concatenate([batch.src, batch.dst]))
        assert np.any(model.memory.get(touched) != 0)

    def test_tgat_layer_validation(self):
        with pytest.raises(ValueError):
            TGAT(10, 4, num_layers=3)
        with pytest.raises(ValueError):
            TGN(10, 4, num_layers=0)

    def test_tgat_two_layers_slower_than_one(self, tiny_dataset):
        """Latency grows with layer count for synchronous models (Figure 6 shape)."""
        from repro.eval import measure_inference_latency

        graph = tiny_dataset.to_temporal_graph()
        one = TGAT(tiny_dataset.num_nodes, tiny_dataset.edge_feature_dim,
                   num_layers=1, num_neighbors=3, seed=0)
        two = TGAT(tiny_dataset.num_nodes, tiny_dataset.edge_feature_dim,
                   num_layers=2, num_neighbors=3, seed=0)
        latency_one = measure_inference_latency(one, graph, batch_size=64, max_batches=3)
        latency_two = measure_inference_latency(two, graph, batch_size=64, max_batches=3)
        assert latency_two.mean_ms > latency_one.mean_ms
