"""Tests of the APAN model: the asynchronous inference/propagation contract."""

import numpy as np
import pytest

from repro.core import APAN, APANConfig
from repro.graph.batching import iterate_batches
from repro.nn.tensor import no_grad


def small_model(num_nodes=30, dim=8, **overrides):
    parameters = dict(num_mailbox_slots=4, num_neighbors=4, mlp_hidden_dim=16, seed=0)
    parameters.update(overrides)
    return APAN(num_nodes, dim, APANConfig(**parameters))


class TestConstruction:
    def test_embedding_dim_equals_edge_feature_dim(self):
        model = small_model(dim=12)
        assert model.embedding_dim == 12

    def test_inference_does_not_query_graph(self, event_batch_factory,
                                            graph_query_spy):
        """Only propagation reads the graph; embeddings read the mailbox."""
        model = small_model(num_nodes=20)
        first = event_batch_factory(num_events=8, num_nodes=20, feature_dim=8)
        second = event_batch_factory(num_events=8, num_nodes=20, feature_dim=8,
                                     seed=1, start_time=200.0)
        with no_grad():
            model.update_state(first, model.compute_embeddings(first))
            assert graph_query_spy  # propagation sampled the neighbourhood
            graph_query_spy.clear()
            model.compute_embeddings(second)
        assert graph_query_spy == []

    def test_has_all_heads(self):
        model = small_model()
        assert model.link_decoder is not None
        assert model.edge_decoder is not None
        assert model.node_decoder is not None

    def test_parameters_are_trainable(self):
        model = small_model()
        assert model.num_parameters() > 0
        assert all(p.requires_grad for p in model.parameters())


class TestComputeEmbeddings:
    def test_shapes_align_with_batch(self, event_batch_factory):
        model = small_model(num_nodes=20, dim=16)
        batch = event_batch_factory(num_events=6, num_nodes=20, feature_dim=16)
        batch = batch.with_negatives(np.arange(6) % 20)
        embeddings = model.compute_embeddings(batch)
        assert embeddings.src.shape == (6, 16)
        assert embeddings.dst.shape == (6, 16)
        assert embeddings.neg.shape == (6, 16)

    def test_without_negatives(self, event_batch_factory):
        model = small_model(num_nodes=20, dim=16)
        batch = event_batch_factory(num_events=6, num_nodes=20, feature_dim=16)
        embeddings = model.compute_embeddings(batch)
        assert embeddings.neg is None

    def test_repeated_node_gets_identical_embedding(self, event_batch_factory):
        """Paper §3.2: a node appearing several times in a batch is encoded once."""
        model = small_model(num_nodes=20, dim=16)
        batch = event_batch_factory(num_events=6, num_nodes=20, feature_dim=16, seed=3)
        batch.src[:] = 2  # same source node for every event
        with no_grad():
            embeddings = model.compute_embeddings(batch)
        for row in range(1, 6):
            np.testing.assert_allclose(embeddings.src.data[row], embeddings.src.data[0])

    def test_compute_embeddings_does_not_touch_state(self, event_batch_factory):
        model = small_model(num_nodes=20, dim=16)
        batch = event_batch_factory(num_events=6, num_nodes=20, feature_dim=16)
        before = model.state_snapshot()
        with no_grad():
            model.compute_embeddings(batch)
        after = model.state_snapshot()
        for key in before:
            np.testing.assert_array_equal(before[key], after[key])

    def test_embeddings_depend_on_mailbox_after_update(self, event_batch_factory):
        model = small_model(num_nodes=20, dim=16)
        model.eval()
        batch = event_batch_factory(num_events=6, num_nodes=20, feature_dim=16)
        with no_grad():
            first = model.compute_embeddings(batch)
            model.update_state(batch, first)
            second_batch = event_batch_factory(num_events=6, num_nodes=20,
                                               feature_dim=16, start_time=200.0)
            second_batch.src[:] = batch.src[:6]
            second = model.compute_embeddings(second_batch)
        assert not np.allclose(first.src.data, second.src.data)


class TestUpdateState:
    def test_node_state_refreshed(self, event_batch_factory):
        model = small_model(num_nodes=20, dim=16)
        first = event_batch_factory(num_events=6, num_nodes=20, feature_dim=16)
        second = event_batch_factory(num_events=6, num_nodes=20, feature_dim=16,
                                     seed=1, start_time=200.0)
        with no_grad():
            embeddings = model.compute_embeddings(first)
            model.update_state(first, embeddings)
            # After the first batch mailboxes are non-empty, so the second
            # batch's embeddings (and hence the refreshed node states) are
            # non-trivial even with zero-initialised biases.
            embeddings = model.compute_embeddings(second)
            model.update_state(second, embeddings)
        touched = np.unique(np.concatenate([second.src, second.dst]))
        assert np.any(model.node_state[touched] != 0)
        assert np.all(model.last_update[touched] > 0)

    def test_mailboxes_filled_for_endpoints(self, event_batch_factory):
        model = small_model(num_nodes=20, dim=16)
        batch = event_batch_factory(num_events=6, num_nodes=20, feature_dim=16)
        with no_grad():
            embeddings = model.compute_embeddings(batch)
            model.update_state(batch, embeddings)
        touched = np.unique(np.concatenate([batch.src, batch.dst]))
        assert model.mailbox.occupancy(touched).min() >= 1

    def test_events_ingested_into_propagator_graph(self, event_batch_factory):
        model = small_model(num_nodes=20, dim=16)
        batch = event_batch_factory(num_events=6, num_nodes=20, feature_dim=16)
        with no_grad():
            embeddings = model.compute_embeddings(batch)
            model.update_state(batch, embeddings)
        assert model.propagator.graph.num_events == 6

    def test_reset_state_clears_everything(self, event_batch_factory):
        model = small_model(num_nodes=20, dim=16)
        batch = event_batch_factory(num_events=6, num_nodes=20, feature_dim=16)
        with no_grad():
            embeddings = model.compute_embeddings(batch)
            model.update_state(batch, embeddings)
        model.reset_state()
        assert np.all(model.node_state == 0)
        assert model.mailbox.occupancy().sum() == 0
        assert model.propagator.graph.num_events == 0

    def test_state_snapshot_restore_roundtrip(self, event_batch_factory):
        model = small_model(num_nodes=20, dim=16)
        batch = event_batch_factory(num_events=6, num_nodes=20, feature_dim=16)
        with no_grad():
            embeddings = model.compute_embeddings(batch)
            model.update_state(batch, embeddings)
        snapshot = model.state_snapshot()
        model.reset_state()
        model.restore_state(snapshot)
        np.testing.assert_array_equal(model.mailbox.valid, snapshot["mailbox_valid"])
        np.testing.assert_array_equal(model.node_state, snapshot["node_state"])


class TestHeads:
    def test_link_logits_shape(self, event_batch_factory):
        model = small_model(num_nodes=20, dim=16)
        batch = event_batch_factory(num_events=5, num_nodes=20, feature_dim=16)
        embeddings = model.compute_embeddings(batch)
        assert model.link_logits(embeddings.src, embeddings.dst).shape == (5,)

    def test_edge_and_node_logits(self, event_batch_factory):
        model = small_model(num_nodes=20, dim=16)
        batch = event_batch_factory(num_events=5, num_nodes=20, feature_dim=16)
        embeddings = model.compute_embeddings(batch)
        assert model.edge_logits(embeddings.src, batch.edge_features,
                                 embeddings.dst).shape == (5,)
        assert model.node_logits(embeddings.src).shape == (5,)

    def test_embed_nodes_readout(self):
        model = small_model(num_nodes=20, dim=16)
        out = model.embed_nodes(np.array([0, 5, 7]), time=100.0)
        assert out.shape == (3, 16)


class TestStreaming:
    def test_full_stream_consumption(self, tiny_dataset):
        """APAN can stream an entire dataset without errors and fills mailboxes."""
        model = APAN(tiny_dataset.num_nodes, tiny_dataset.edge_feature_dim,
                     APANConfig(num_mailbox_slots=4, num_neighbors=4,
                                mlp_hidden_dim=16, seed=0))
        graph = tiny_dataset.to_temporal_graph()
        model.eval()
        with no_grad():
            for batch in iterate_batches(graph, 64):
                embeddings = model.compute_embeddings(batch)
                model.update_state(batch, embeddings)
        active = graph.active_nodes()
        assert model.mailbox.occupancy(active).mean() > 1.0
        assert model.propagator.graph.num_events == graph.num_events

    def test_state_dict_roundtrip_preserves_predictions(self, event_batch_factory):
        model_a = small_model(num_nodes=20, dim=16)
        model_b = small_model(num_nodes=20, dim=16, seed=1)
        model_b.load_state_dict(model_a.state_dict())
        batch = event_batch_factory(num_events=4, num_nodes=20, feature_dim=16)
        model_a.eval(), model_b.eval()
        with no_grad():
            emb_a = model_a.compute_embeddings(batch)
            emb_b = model_b.compute_embeddings(batch)
        np.testing.assert_allclose(emb_a.src.data, emb_b.src.data)
