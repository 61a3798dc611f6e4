"""Common protocol and evaluation for the static (non-streaming) baselines.

Static methods (DeepWalk, Node2Vec, CTDNE, GraphSAGE, GAT, GAE, VGAE) cannot
consume the event stream online.  Following the paper's protocol they are
fitted on the *training window* collapsed to a (static or walk-based) graph,
and then evaluated on the validation/test events with the same
positive-vs-sampled-negative scheme as the dynamic models.  Nodes unseen
during training receive a zero embedding — which is exactly why these methods
fall behind on the inductive portions of the data (Table 2's gap).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..datasets.base import DatasetSplit, TemporalDataset
from ..eval.metrics import accuracy, average_precision, roc_auc
from ..graph.batching import iterate_batches

__all__ = ["StaticBaseline", "StaticLinkPredictionResult", "evaluate_static_link_prediction",
           "evaluate_static_node_classification"]


@dataclass
class StaticLinkPredictionResult:
    average_precision: float
    accuracy: float
    num_events: int

    def as_dict(self) -> dict:
        return {"ap": self.average_precision, "accuracy": self.accuracy,
                "num_events": self.num_events}


class StaticBaseline:
    """Interface: fit on the training window, then score node pairs."""

    name = "static"

    def fit(self, dataset: TemporalDataset, split: DatasetSplit) -> "StaticBaseline":
        raise NotImplementedError

    def node_embeddings(self) -> np.ndarray:
        """(num_nodes, dim) embedding matrix; zero rows for unseen nodes."""
        raise NotImplementedError

    def score_pairs(self, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
        """Probability-like scores for candidate edges (higher = more likely)."""
        embeddings = self.node_embeddings()
        src_vectors = embeddings[np.asarray(src, dtype=np.int64)]
        dst_vectors = embeddings[np.asarray(dst, dtype=np.int64)]
        logits = np.sum(src_vectors * dst_vectors, axis=1)
        return 1.0 / (1.0 + np.exp(-np.clip(logits, -60, 60)))


def evaluate_static_link_prediction(model: StaticBaseline, dataset: TemporalDataset,
                                    split: DatasetSplit, batch_size: int = 200,
                                    seed: int = 0) -> StaticLinkPredictionResult:
    """Score val+test events of ``dataset`` against sampled negatives."""
    graph = dataset.to_temporal_graph()
    rng = np.random.default_rng(seed)
    destination_pool = np.unique(dataset.dst[:split.train_end])
    if len(destination_pool) == 0:
        destination_pool = np.unique(dataset.dst)

    scores: list[np.ndarray] = []
    labels: list[np.ndarray] = []
    for batch in iterate_batches(graph, batch_size, start=split.train_end):
        negatives = rng.choice(destination_pool, size=len(batch), replace=True)
        scores.append(model.score_pairs(batch.src, batch.dst))
        scores.append(model.score_pairs(batch.src, negatives))
        labels.append(np.ones(len(batch)))
        labels.append(np.zeros(len(batch)))

    all_scores = np.concatenate(scores)
    all_labels = np.concatenate(labels)
    return StaticLinkPredictionResult(
        average_precision=average_precision(all_scores, all_labels),
        accuracy=accuracy(all_scores, all_labels),
        num_events=int(len(all_labels) // 2),
    )


def evaluate_static_node_classification(model: StaticBaseline, dataset: TemporalDataset,
                                        split: DatasetSplit, seed: int = 0,
                                        epochs: int = 30, lr: float = 0.05) -> float:
    """Logistic regression on frozen static embeddings; returns eval ROC-AUC.

    Mirrors the downstream protocol used for the dynamic models, but the
    embedding of an event's source node never changes over time (static
    methods have a single embedding per node — Figure 1b's limitation).
    """
    embeddings = model.node_embeddings()
    features = embeddings[dataset.src]
    labels = dataset.labels
    rng = np.random.default_rng(seed)

    train_idx = np.arange(0, split.train_end)
    eval_idx = np.arange(split.train_end, split.num_events)

    dim = features.shape[1]
    weights = rng.normal(0.0, 0.01, size=dim)
    bias = 0.0
    positives = labels[train_idx] > 0.5
    positive_weight = min(1.0 / max(positives.mean(), 1e-6), 1000.0)

    for _ in range(epochs):
        order = rng.permutation(train_idx)
        for begin in range(0, len(order), 512):
            chosen = order[begin:begin + 512]
            x = features[chosen]
            y = labels[chosen]
            logits = x @ weights + bias
            probabilities = 1.0 / (1.0 + np.exp(-np.clip(logits, -60, 60)))
            sample_weights = np.where(y > 0.5, positive_weight, 1.0)
            gradient = (probabilities - y) * sample_weights
            weights -= lr * (x.T @ gradient) / len(chosen)
            bias -= lr * float(gradient.mean())

    eval_logits = features[eval_idx] @ weights + bias
    return roc_auc(eval_logits, labels[eval_idx])
