"""Latency measurement harness for Figures 6 and 7.

``measure_inference_latency`` times only the synchronous critical path of a
model — everything that must finish before a business decision (e.g. ban a
transaction) can be taken: embedding computation plus the decoder.  State
updates (mail propagation for APAN, memory writes and event ingestion for the
baselines) run outside the timed region, mirroring the paper's protocol:
"we only calculate the time from the interaction occurring to the model
inference, not including the time on APAN's asynchronous link".

``measure_training_time`` times a full pass over the training window with
gradient computation and optimiser steps (Figure 7's seconds-per-epoch axis).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..core.interfaces import TemporalEmbeddingModel
from ..graph.batching import iterate_batches
from ..storage.graph_view import GraphView
from ..nn import functional as F
from ..nn.optim import Adam
from ..nn.tensor import no_grad
from ..obs import summarize
from .negative_sampling import TimeAwareNegativeSampler

__all__ = ["LatencyResult", "measure_inference_latency", "measure_training_time"]


@dataclass
class LatencyResult:
    """Per-batch latency statistics in milliseconds."""

    mean_ms: float
    median_ms: float
    p95_ms: float
    num_batches: int
    batch_size: int
    p99_ms: float = 0.0

    def as_dict(self) -> dict:
        return {
            "mean_ms": self.mean_ms,
            "median_ms": self.median_ms,
            "p95_ms": self.p95_ms,
            "p99_ms": self.p99_ms,
            "num_batches": self.num_batches,
            "batch_size": self.batch_size,
        }


def measure_inference_latency(model: TemporalEmbeddingModel, graph: GraphView,
                              batch_size: int = 200, start: int = 0,
                              max_batches: int | None = None,
                              seed: int = 0) -> LatencyResult:
    """Measure the critical-path inference latency per batch.

    The stream is consumed from ``start``; state updates still happen (so the
    model sees a realistic, growing history) but only the synchronous part is
    timed.
    """
    sampler = TimeAwareNegativeSampler(graph, seed=seed)
    was_training = model.training
    model.eval()
    durations: list[float] = []
    with no_grad():
        for index, batch in enumerate(iterate_batches(graph, batch_size, start=start)):
            if max_batches is not None and index >= max_batches:
                break
            batch = batch.with_negatives(sampler.sample(batch))

            begin = time.perf_counter()
            embeddings = model.compute_embeddings(batch)
            model.link_logits(embeddings.src, embeddings.dst)
            model.link_logits(embeddings.src, embeddings.neg)
            durations.append(time.perf_counter() - begin)

            model.update_state(batch, embeddings)
    model.train(was_training)
    if not durations:
        raise ValueError("no batches were measured")
    values = np.asarray(durations) * 1000.0
    summary = summarize(values)
    return LatencyResult(
        mean_ms=summary.mean,
        median_ms=summary.p50,
        p95_ms=summary.p95,
        p99_ms=summary.p99,
        num_batches=summary.count,
        batch_size=batch_size,
    )


def measure_training_time(model: TemporalEmbeddingModel, graph: GraphView,
                          batch_size: int = 200, stop: int | None = None,
                          learning_rate: float = 1e-4, seed: int = 0) -> float:
    """Time one training epoch (seconds) over events ``[0, stop)``."""
    sampler = TimeAwareNegativeSampler(graph, seed=seed)
    optimizer = Adam(model.parameters(), lr=learning_rate)
    model.train()
    model.reset_state()
    begin = time.perf_counter()
    for batch in iterate_batches(graph, batch_size, stop=stop):
        batch = batch.with_negatives(sampler.sample(batch))
        embeddings = model.compute_embeddings(batch)
        positive = model.link_logits(embeddings.src, embeddings.dst)
        negative = model.link_logits(embeddings.src, embeddings.neg)
        logits = F.concat([positive, negative], axis=0)
        targets = np.concatenate([np.ones(len(batch)), np.zeros(len(batch))])
        loss = F.binary_cross_entropy_with_logits(logits, targets)
        optimizer.zero_grad()
        loss.backward()
        optimizer.step()
        model.update_state(batch, embeddings)
    return time.perf_counter() - begin
