"""Streaming evaluation of temporal link prediction.

The protocol follows TGAT/TGN/APAN: the evaluation events are consumed
chronologically in batches; for every event the model scores the true
destination against one sampled negative destination; AP and accuracy are
computed over all scores.  The model's streaming state is updated after every
batch so later events see earlier ones, exactly as in deployment.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.interfaces import TemporalEmbeddingModel
from ..graph.batching import iterate_batches
from ..storage.graph_view import GraphView
from ..nn import functional as F
from ..nn.tensor import no_grad
from .metrics import accuracy, average_precision
from .negative_sampling import TimeAwareNegativeSampler

__all__ = ["LinkPredictionResult", "evaluate_link_prediction"]


@dataclass
class LinkPredictionResult:
    """Aggregate link prediction metrics over an evaluation window."""

    average_precision: float
    accuracy: float
    num_events: int

    def as_dict(self) -> dict:
        return {
            "ap": self.average_precision,
            "accuracy": self.accuracy,
            "num_events": self.num_events,
        }


def evaluate_link_prediction(model: TemporalEmbeddingModel, graph: GraphView,
                             start: int, stop: int, batch_size: int,
                             negative_sampler: TimeAwareNegativeSampler | None = None,
                             seed: int = 0,
                             update_state: bool = True) -> LinkPredictionResult:
    """Evaluate ``model`` on events ``[start, stop)`` of ``graph``.

    The model must already hold the streaming state accumulated from the
    events before ``start`` (the caller is responsible for replaying them).
    """
    if negative_sampler is None:
        negative_sampler = TimeAwareNegativeSampler(graph, seed=seed)
    was_training = model.training
    model.eval()

    scores: list[np.ndarray] = []
    labels: list[np.ndarray] = []

    with no_grad():
        for batch in iterate_batches(graph, batch_size, start=start, stop=stop):
            batch = batch.with_negatives(negative_sampler.sample(batch))
            # One batched encoder call covers sources, destinations and
            # negatives (compute_embeddings deduplicates via
            # Mailbox.gather_many), and one decoder call scores the positive
            # and negative pairs together — the decoder is row-wise, so
            # stacking the pairs changes nothing numerically in eval mode.
            embeddings = model.compute_embeddings(batch)
            logits = model.link_logits(
                F.concat([embeddings.src, embeddings.src], axis=0),
                F.concat([embeddings.dst, embeddings.neg], axis=0),
            ).data
            scores.append(1.0 / (1.0 + np.exp(-logits)))
            labels.append(np.ones(len(batch)))
            labels.append(np.zeros(len(batch)))
            if update_state:
                model.update_state(batch, embeddings)

    model.train(was_training)
    if not scores:
        return LinkPredictionResult(average_precision=0.0, accuracy=0.0, num_events=0)
    all_scores = np.concatenate(scores)
    all_labels = np.concatenate(labels)
    return LinkPredictionResult(
        average_precision=average_precision(all_scores, all_labels),
        accuracy=accuracy(all_scores, all_labels),
        num_events=int(len(all_labels) // 2),
    )
