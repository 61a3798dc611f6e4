"""Self-supervised training loop for temporal link prediction.

The trainer implements the protocol shared by APAN and all dynamic baselines
(paper §4.2/§4.4):

* chronological mini-batches (default size 200) over the training window;
* one batched encoder call per step: sources, destinations and sampled
  negatives are deduplicated and encoded together inside
  ``model.compute_embeddings`` (APAN routes this through
  ``Mailbox.gather_many`` + ``APANEncoder.encode_many``), so the training
  hot path never encodes per event;
* time-varying negative sampling (Eq. 7) and a BCE loss on positive vs.
  negative destination scores;
* Adam with learning rate 1e-4 and gradient clipping;
* early stopping on validation AP with a patience of 5;
* streaming state is reset at the start of every epoch and carried through
  train → validation → test so evaluation sees the accumulated history.

The trainer works with any :class:`TemporalEmbeddingModel`, so the Table 2/3
benchmarks reuse it unchanged for every method.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ..eval.evaluators import LinkPredictionResult, evaluate_link_prediction
from ..eval.negative_sampling import TimeAwareNegativeSampler
from ..graph.batching import iterate_batches
from ..storage.graph_view import GraphView
from ..nn import functional as F
from ..nn.optim import Adam, clip_grad_norm
from ..utils.logging import RunLogger
from .interfaces import TemporalEmbeddingModel

__all__ = ["TrainingResult", "LinkPredictionTrainer"]


@dataclass
class TrainingResult:
    """Outcome of a full training run."""

    best_epoch: int
    best_val: LinkPredictionResult
    test_at_best: LinkPredictionResult
    epochs_run: int
    train_seconds_per_epoch: float
    history: list[dict] = field(default_factory=list)

    def as_dict(self) -> dict:
        return {
            "best_epoch": self.best_epoch,
            "val_ap": self.best_val.average_precision,
            "val_accuracy": self.best_val.accuracy,
            "test_ap": self.test_at_best.average_precision,
            "test_accuracy": self.test_at_best.accuracy,
            "epochs_run": self.epochs_run,
            "train_seconds_per_epoch": self.train_seconds_per_epoch,
        }


class LinkPredictionTrainer:
    """Trains a temporal embedding model on future link prediction."""

    def __init__(self, model: TemporalEmbeddingModel, graph: GraphView,
                 train_end: int, val_end: int,
                 batch_size: int = 200, learning_rate: float = 1e-4,
                 max_epochs: int = 10, patience: int = 5,
                 gradient_clip: float = 5.0, seed: int = 0,
                 verbose: bool = False):
        if not 0 < train_end < val_end <= graph.num_events:
            raise ValueError("invalid split boundaries")
        self.model = model
        self.graph = graph
        self.train_end = train_end
        self.val_end = val_end
        self.batch_size = batch_size
        self.learning_rate = learning_rate
        self.max_epochs = max_epochs
        self.patience = patience
        self.gradient_clip = gradient_clip
        self.seed = seed
        self.logger = RunLogger("link-prediction", verbose=verbose)
        self.optimizer = Adam(model.parameters(), lr=learning_rate)

    # ------------------------------------------------------------------ #
    def train_one_epoch(self, epoch: int) -> float:
        """Run one training epoch; returns the mean batch loss."""
        model = self.model
        model.train()
        model.reset_state()
        sampler = TimeAwareNegativeSampler(self.graph, seed=self.seed + epoch)
        losses: list[float] = []
        for batch in iterate_batches(self.graph, self.batch_size, stop=self.train_end):
            batch = batch.with_negatives(sampler.sample(batch))
            # Single batched encode of all endpoints + negatives (deduplicated).
            embeddings = model.compute_embeddings(batch)
            positive = model.link_logits(embeddings.src, embeddings.dst)
            negative = model.link_logits(embeddings.src, embeddings.neg)
            logits = F.concat([positive, negative], axis=0)
            targets = np.concatenate([np.ones(len(batch)), np.zeros(len(batch))])
            loss = F.binary_cross_entropy_with_logits(logits, targets)

            self.optimizer.zero_grad()
            loss.backward()
            if self.gradient_clip:
                clip_grad_norm(self.optimizer.parameters, self.gradient_clip)
            self.optimizer.step()

            model.update_state(batch, embeddings)
            losses.append(loss.item())
        return float(np.mean(losses)) if losses else 0.0

    def _evaluate_window(self, start: int, stop: int, seed_offset: int) -> LinkPredictionResult:
        sampler = TimeAwareNegativeSampler(self.graph, seed=self.seed + 10_000 + seed_offset)
        return evaluate_link_prediction(
            self.model, self.graph, start=start, stop=stop,
            batch_size=self.batch_size, negative_sampler=sampler,
        )

    # ------------------------------------------------------------------ #
    def fit(self) -> TrainingResult:
        """Run the full training loop with early stopping on validation AP."""
        best_val = LinkPredictionResult(0.0, 0.0, 0)
        best_test = LinkPredictionResult(0.0, 0.0, 0)
        best_epoch = -1
        best_parameters: dict | None = None
        epochs_without_improvement = 0
        epoch_durations: list[float] = []

        for epoch in range(self.max_epochs):
            begin = time.perf_counter()
            train_loss = self.train_one_epoch(epoch)
            epoch_durations.append(time.perf_counter() - begin)

            # Validation and test continue the stream from the training state.
            val_result = self._evaluate_window(self.train_end, self.val_end, seed_offset=0)
            test_result = self._evaluate_window(self.val_end, self.graph.num_events,
                                                seed_offset=1)
            self.logger.log(
                epoch, train_loss=train_loss,
                val_ap=val_result.average_precision,
                test_ap=test_result.average_precision,
            )

            if val_result.average_precision > best_val.average_precision:
                best_val = val_result
                best_test = test_result
                best_epoch = epoch
                best_parameters = self.model.state_dict()
                epochs_without_improvement = 0
            else:
                epochs_without_improvement += 1
                if epochs_without_improvement >= self.patience:
                    break

        if best_parameters is not None:
            self.model.load_state_dict(best_parameters)

        return TrainingResult(
            best_epoch=best_epoch,
            best_val=best_val,
            test_at_best=best_test,
            epochs_run=len(epoch_durations),
            train_seconds_per_epoch=float(np.mean(epoch_durations)) if epoch_durations else 0.0,
            history=list(self.logger.history),
        )
