"""Integration tests: full training/evaluation runs across the module stack.

These tests exercise the same code paths the benchmark harness uses, on very
small synthetic datasets, and assert the qualitative relationships the paper
reports (dynamic > static at future link prediction, APAN's latency advantage,
APAN's batch-size robustness).
"""

import numpy as np
import pytest

from repro.baselines import DeepWalk, JODIE, TGN, evaluate_static_link_prediction
from repro.core import APAN, APANConfig, LinkPredictionTrainer, explain_node
from repro.datasets import bipartite_interaction_dataset, compute_statistics
from repro.eval import (
    evaluate_link_prediction,
    evaluate_node_classification,
    measure_inference_latency,
)
from repro.serving import ServingLoop


@pytest.fixture(scope="module")
def medium_dataset():
    return bipartite_interaction_dataset(
        name="integration", num_users=60, num_items=25, num_events=900,
        edge_feature_dim=24, repeat_probability=0.75, label_rate=0.01, seed=11,
    )


@pytest.fixture(scope="module")
def medium_split(medium_dataset):
    return medium_dataset.split()


@pytest.fixture(scope="module")
def trained_apan(medium_dataset, medium_split):
    graph = medium_dataset.to_temporal_graph()
    model = APAN(medium_dataset.num_nodes, medium_dataset.edge_feature_dim,
                 APANConfig(num_mailbox_slots=6, num_neighbors=6, mlp_hidden_dim=32,
                            dropout=0.0, learning_rate=2e-3, seed=0))
    trainer = LinkPredictionTrainer(model, graph, medium_split.train_end,
                                    medium_split.val_end, batch_size=50,
                                    learning_rate=2e-3, max_epochs=6, patience=6, seed=0)
    result = trainer.fit()
    return model, result, graph


class TestAPANEndToEnd:
    def test_training_reaches_reasonable_ap(self, trained_apan):
        _, result, _ = trained_apan
        assert result.best_val.average_precision > 0.70
        assert result.test_at_best.average_precision > 0.65

    def test_downstream_node_classification_runs(self, trained_apan, medium_dataset,
                                                 medium_split):
        model, _, _ = trained_apan
        outcome = evaluate_node_classification(model, medium_dataset, medium_split,
                                               epochs=5, batch_size=100)
        assert 0.0 <= outcome.test_auc <= 1.0

    def test_interpretability_after_training(self, trained_apan, medium_dataset):
        model, _, graph = trained_apan
        occupancy = model.mailbox.occupancy()
        node = int(np.argmax(occupancy))
        attributions = explain_node(model, node, time=float(graph.timestamps[-1]) + 1.0)
        assert len(attributions) >= 1
        assert abs(sum(a.weight for a in attributions) - 1.0) < 1e-6

    def test_apan_beats_static_deepwalk(self, trained_apan, medium_dataset, medium_split):
        """The paper's central accuracy claim: dynamic models beat static embeddings."""
        _, apan_result, _ = trained_apan
        deepwalk = DeepWalk(seed=0).fit(medium_dataset, medium_split)
        static_result = evaluate_static_link_prediction(deepwalk, medium_dataset,
                                                        medium_split, batch_size=100)
        assert apan_result.best_val.average_precision > static_result.average_precision


class TestLatencyRelationships:
    def test_apan_inference_faster_than_tgn(self, medium_dataset):
        """Figure 6's headline: APAN's critical path is several times cheaper."""
        graph = medium_dataset.to_temporal_graph()
        apan = APAN(medium_dataset.num_nodes, medium_dataset.edge_feature_dim,
                    APANConfig(num_mailbox_slots=6, num_neighbors=6,
                               mlp_hidden_dim=32, seed=0))
        tgn = TGN(medium_dataset.num_nodes, medium_dataset.edge_feature_dim,
                  num_layers=1, num_neighbors=6, seed=0)
        apan_latency = measure_inference_latency(apan, graph, batch_size=100, max_batches=4)
        tgn_latency = measure_inference_latency(tgn, graph, batch_size=100, max_batches=4)
        assert apan_latency.mean_ms < tgn_latency.mean_ms

    def test_apan_latency_flat_in_propagation_hops(self, medium_dataset):
        """Figure 6: APAN-1layer and APAN-2layers have ~the same inference latency."""
        graph = medium_dataset.to_temporal_graph()
        latencies = []
        for hops in (1, 2):
            model = APAN(medium_dataset.num_nodes, medium_dataset.edge_feature_dim,
                         APANConfig(num_mailbox_slots=6, num_neighbors=6,
                                    mlp_hidden_dim=32, num_hops=hops, seed=0))
            latencies.append(measure_inference_latency(model, graph, batch_size=100,
                                                       max_batches=4).mean_ms)
        # Within 60% of each other (they share an identical critical path).
        assert latencies[1] < latencies[0] * 1.6

    def test_serving_loop_shows_apan_advantage(self, medium_dataset):
        """Measured, both inline: APAN's decision beats TGN's even with its
        propagation on the critical path."""
        graph = medium_dataset.to_temporal_graph()
        apan = APAN(medium_dataset.num_nodes, medium_dataset.edge_feature_dim,
                    APANConfig(num_mailbox_slots=6, num_neighbors=6,
                               mlp_hidden_dim=32, seed=0))
        tgn = TGN(medium_dataset.num_nodes, medium_dataset.edge_feature_dim,
                  num_layers=1, num_neighbors=6, seed=0)
        apan_report = ServingLoop(apan, graph, batch_size=100).run(max_batches=4)
        tgn_report = ServingLoop(tgn, graph, batch_size=100).run(max_batches=4)
        assert apan_report.mean_decision_ms < tgn_report.mean_decision_ms


class TestBaselineTrainingIntegration:
    def test_jodie_trains_with_shared_trainer(self, medium_dataset, medium_split):
        graph = medium_dataset.to_temporal_graph()
        model = JODIE(medium_dataset.num_nodes, medium_dataset.edge_feature_dim, seed=0)
        trainer = LinkPredictionTrainer(model, graph, medium_split.train_end,
                                        medium_split.val_end, batch_size=100,
                                        learning_rate=1e-3, max_epochs=1, patience=2)
        result = trainer.fit()
        assert 0.0 <= result.best_val.average_precision <= 1.0

    def test_dataset_statistics_consistent_with_split(self, medium_dataset, medium_split):
        stats = compute_statistics(medium_dataset)
        assert stats.nodes_in_train == len(medium_split.train_nodes)
        assert stats.unseen_nodes_in_eval == len(medium_split.unseen_eval_nodes)

    def test_evaluation_is_reproducible(self, medium_dataset, medium_split):
        graph = medium_dataset.to_temporal_graph()

        def run():
            model = APAN(medium_dataset.num_nodes, medium_dataset.edge_feature_dim,
                         APANConfig(num_mailbox_slots=4, num_neighbors=4,
                                    mlp_hidden_dim=16, dropout=0.0, seed=5))
            model.reset_state()
            return evaluate_link_prediction(model, graph, 0, medium_split.train_end,
                                            batch_size=100, seed=9).average_precision

        assert run() == pytest.approx(run())
