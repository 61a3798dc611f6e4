"""The online decision service of Figure 2, measured end to end.

A stream of transactions arrives at an online decision service which must
score each one ("is it fraud?") before the transaction is allowed to
complete.  :class:`ServingLoop` drains the stream in micro-batches of
``batch_size`` events and scores each micro-batch with **one** batched
encoder call: ``compute_embeddings`` deduplicates every endpoint with
:meth:`repro.core.mailbox.Mailbox.gather_many` and encodes the distinct nodes
through :meth:`repro.core.encoder.APANEncoder.encode_many` in single array
ops.

The two :data:`SERVING_MODES` run the same loop and differ only in where the
model's state update (mail propagation, for APAN) happens:

* ``"inline"`` — ``model.update_state`` runs inside the timed decision, as in
  Figure 2(a).  Every :class:`~repro.core.interfaces.TemporalEmbeddingModel`
  can be served this way: it is TGN's and JODIE's only deployment, and APAN's
  ablation with propagation forced onto the critical path.
* ``"worker-pool"`` — APAN's asynchronous deployment of Figure 2(b) on the
  real multi-process runtime (:class:`~repro.serving.runtime.ServingRuntime`):
  after the decision, the scorer applies the cheap embedding-state updates
  and submits mail propagation to worker processes that share the mailbox
  arrays through ``multiprocessing.shared_memory``, with bounded-backlog
  backpressure and a bounded-staleness watermark.  Needs a model with a
  mailbox and a mail propagator.

Every decision latency is measured wall time of the decision path; nothing
modelled is ever added to it.  ``mean_compute_ms`` is the feature-lookup +
encoder + scorer part of a decision, per scored *micro-batch* (not per
event), so encoder-side speedups stay visible on their own.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ..core.interfaces import TemporalEmbeddingModel
from ..graph.batching import EventBatch, iterate_batches
from ..storage.graph_view import GraphView
from ..nn.tensor import no_grad
from ..obs import NULL_TELEMETRY, summarize

__all__ = ["FeatureProvider", "ServingReport", "ServingLoop", "SERVING_MODES"]

SERVING_MODES = ("inline", "worker-pool")


class FeatureProvider:
    """Decision-path seam for derived analytics (the online feature store).

    A feature provider lets every serving mode consult incrementally
    maintained per-node features *on* the decision path while their
    maintenance stays *off* it.  The serving loop calls, per scored
    micro-batch:

    * :meth:`lookup` — on the decision's critical path, before the encoder
      runs.  Must be O(batch) gathers against precomputed state; its wall
      time is charged to the decision latency.
    * :meth:`observe_scores` — after the decision, with the scorer's risk
      logits for the batch (feeds e.g. a top-k risk view).
    * :meth:`advance` — after the decision, publishing event rows
      ``[0, hi)`` to the provider's views (exactly-once fold maintenance).

    :meth:`bind_telemetry` is called by the serving loop so lookups and
    advances report through the run's :mod:`repro.obs` spans
    (``features.lookup`` / ``features.advance``).  The base class is a
    no-op stub — :class:`repro.analytics.AnalyticsFeatureProvider` is the
    real implementation, backed by a
    :class:`~repro.analytics.registry.ViewRegistry`.
    """

    telemetry = NULL_TELEMETRY

    def bind_telemetry(self, telemetry) -> None:
        self.telemetry = telemetry

    def lookup(self, batch: EventBatch):
        """Per-event feature rows for the batch (None: no features)."""
        return None

    def observe_scores(self, batch: EventBatch, scores: np.ndarray) -> None:
        """Fold the scorer's per-event risk scores into derived views."""

    def advance(self, hi: int) -> int:
        """Publish event rows ``[0, hi)`` to the provider's views."""
        return int(hi)

    def set_watermark_policy(self, policy) -> None:
        """Install a late-event :class:`~repro.analytics.WatermarkPolicy`.

        Called by the serving loop before serving starts when it was built
        with an explicit ``watermark_policy``.  No-op for the stub.
        """

    def late_accounting(self) -> dict:
        """Late-event policy outcomes (``late_admitted``/``late_dropped``)."""
        return {}


@dataclass
class ServingReport:
    """Latency report of one serving run.

    ``decision_latencies_ms`` holds one measured wall time per scored
    micro-batch.  ``mean_staleness_ms``/``max_staleness_ms`` quantify how
    stale the mailbox state behind the decisions was: the measured
    wall-clock age of the oldest undelivered propagation task at
    mailbox-read time in ``"worker-pool"`` mode, and zero ``"inline"``
    (the state is always current there).  ``max_backlog`` is the
    propagation backlog high-water mark in batches.
    """

    mode: str
    mean_decision_ms: float
    p50_decision_ms: float
    p95_decision_ms: float
    p99_decision_ms: float
    mean_async_lag_ms: float
    num_decisions: int
    # Measured model compute per scored micro-batch (NOT per event; one
    # micro-batch covers ``batch_size`` events).
    mean_compute_ms: float = 0.0
    mean_staleness_ms: float = 0.0
    max_staleness_ms: float = 0.0
    max_backlog: int = 0
    # Late-event accounting of the run's feature provider under its
    # watermark policy (zeros / "" when no provider was attached).
    watermark_policy: str = ""
    late_admitted: int = 0
    late_dropped: int = 0
    decision_latencies_ms: list[float] = field(default_factory=list, repr=False)

    def as_dict(self) -> dict:
        return {
            "mode": self.mode,
            "mean_decision_ms": self.mean_decision_ms,
            "p50_decision_ms": self.p50_decision_ms,
            "p95_decision_ms": self.p95_decision_ms,
            "p99_decision_ms": self.p99_decision_ms,
            "mean_async_lag_ms": self.mean_async_lag_ms,
            "num_decisions": self.num_decisions,
            "mean_compute_ms": self.mean_compute_ms,
            "mean_staleness_ms": self.mean_staleness_ms,
            "max_staleness_ms": self.max_staleness_ms,
            "max_backlog": self.max_backlog,
            "watermark_policy": self.watermark_policy,
            "late_admitted": self.late_admitted,
            "late_dropped": self.late_dropped,
        }


def _late_extra(provider: FeatureProvider | None) -> dict:
    """ServingReport fields from the provider's late-event accounting."""
    if provider is None:
        return {}
    accounting = provider.late_accounting() or {}
    return {
        "watermark_policy": str(accounting.get("policy", "")),
        "late_admitted": int(accounting.get("late_admitted", 0)),
        "late_dropped": int(accounting.get("late_dropped", 0)),
    }


def _percentile_report(mode: str, decision_latencies: list[float],
                       compute_latencies: list[float], num_events: int,
                       **extra) -> ServingReport:
    summary = summarize(decision_latencies)
    return ServingReport(
        mode=mode,
        mean_decision_ms=summary.mean,
        p50_decision_ms=summary.p50,
        p95_decision_ms=summary.p95,
        p99_decision_ms=summary.p99,
        num_decisions=num_events,
        mean_compute_ms=float(np.mean(compute_latencies)) if compute_latencies else 0.0,
        decision_latencies_ms=np.asarray(decision_latencies, dtype=np.float64).tolist(),
        **extra,
    )


class ServingLoop:
    """Serves a transaction stream with a temporal embedding model.

    A closed loop: each micro-batch is scored as soon as the previous one
    is done.  ``run(mode=...)`` selects one of :data:`SERVING_MODES`.
    """

    def __init__(self, model: TemporalEmbeddingModel, graph: GraphView,
                 batch_size: int = 200,
                 feature_provider: FeatureProvider | None = None,
                 watermark_policy=None):
        self.model = model
        self.graph = graph
        self.batch_size = batch_size
        # Optional online feature store consulted on the decision path; its
        # view maintenance (advance) runs off the critical path per batch.
        self.feature_provider = feature_provider
        # Late-event admission policy (a repro.analytics.WatermarkPolicy)
        # for the provider's folds; installed before the first publish.
        self.watermark_policy = watermark_policy
        if feature_provider is not None and watermark_policy is not None:
            feature_provider.set_watermark_policy(watermark_policy)
        # After a "worker-pool" run with RuntimeConfig(telemetry=True), holds
        # the run's Telemetry (private post-close copy): call
        # .write_chrome_trace(path) / .snapshot() on it.  None otherwise.
        self.last_telemetry = None

    def run(self, max_batches: int | None = None, mode: str = "inline",
            runtime_config=None) -> ServingReport:
        """Serve the event stream in one of :data:`SERVING_MODES`.

        ``runtime_config`` (a :class:`~repro.serving.runtime.RuntimeConfig`)
        only applies to ``"worker-pool"``.  In that mode each decision also
        records the wall-clock staleness of the mailbox snapshot it read —
        the age of the oldest propagation task still undelivered at read
        time (the stream-time watermark gap stays available via
        :meth:`~repro.serving.runtime.ServingRuntime.staleness`), and the
        decision path runs once untimed over the first batch after the pool
        starts, so the fork's copy-on-write faults precede the first timed
        decision.
        """
        if mode not in SERVING_MODES:
            raise ValueError(f"mode must be one of {SERVING_MODES}, got {mode!r}")
        provider = self.feature_provider
        runtime = None
        if mode == "worker-pool":
            from .runtime import RuntimeConfig, ServingRuntime  # local: keep import cheap

            config = runtime_config or RuntimeConfig()
            if provider is not None and config.watermark_policy is not None:
                # Config-level policy wins for this run (raises if the provider
                # already folded rows under a different policy).
                provider.set_watermark_policy(config.watermark_policy)
            runtime = ServingRuntime.for_model(self.model, config)
            first_time = float(self.graph.timestamps[0]) if self.graph.num_events else 0.0
            runtime.start(initial_watermark=first_time)
        telemetry = runtime.telemetry if runtime is not None else NULL_TELEMETRY
        if provider is not None:
            # Feature lookups/advances report through this run's spans.
            provider.bind_telemetry(telemetry)

        was_training = self.model.training
        self.model.eval()
        decision_latencies: list[float] = []
        compute_latencies: list[float] = []
        staleness: list[float] = []
        num_events_served = 0
        mean_lag_ms, max_backlog = 0.0, 0
        try:
            with no_grad():
                if runtime is not None and self.graph.num_events:
                    # start() forked the pool, so the scorer's pages are now
                    # copy-on-write: the first decision would pay ~450 page
                    # faults (~2 ms, 3x a steady decision).  One untimed pass
                    # of the decision path over the first batch takes them
                    # first.  It only reads: mailbox, node state and store
                    # are left as they were.
                    warm = next(iterate_batches(self.graph, self.batch_size))
                    embeddings = self.model.compute_embeddings(warm)
                    self.model.link_logits(embeddings.src, embeddings.dst)
                for index, batch in enumerate(iterate_batches(self.graph, self.batch_size)):
                    if max_batches is not None and index >= max_batches:
                        break

                    # --- decision path: everything in here is timed ----------
                    with telemetry.span("scorer.decision") as decision_span:
                        # Staleness of the mailbox read below.
                        staleness.append(runtime.staleness().staleness_ms
                                         if runtime is not None else 0.0)
                        begin = time.perf_counter()
                        if provider is not None:
                            provider.lookup(batch)  # features: decision path
                        with telemetry.span("scorer.encode", arg=len(batch)):
                            embeddings = self.model.compute_embeddings(batch)
                        logits = self.model.link_logits(embeddings.src, embeddings.dst)
                        compute_ms = decision_ms = (time.perf_counter() - begin) * 1000.0
                        if runtime is None:  # inline: the update is on the path
                            self.model.update_state(batch, embeddings)
                            decision_ms = (time.perf_counter() - begin) * 1000.0
                        decision_span.set_arg(decision_ms)
                    compute_latencies.append(compute_ms)
                    decision_latencies.append(decision_ms)
                    num_events_served += len(batch)

                    # --- off the decision's critical path --------------------
                    if runtime is not None:
                        self.model.apply_embedding_updates(batch, embeddings)
                        runtime.submit(batch, embeddings.src.data, embeddings.dst.data)
                    if provider is not None:
                        scores = np.asarray(logits.data, dtype=np.float64).reshape(-1)
                        provider.observe_scores(batch, scores)
                        provider.advance(int(batch.edge_ids[-1]) + 1)
            if runtime is not None:
                runtime.drain()
                mean_lag_ms = runtime.mean_delivery_lag_ms()
                max_backlog = runtime.max_backlog_seen
        finally:
            if runtime is not None:
                # The success path drained above; don't re-drain here, where a
                # stuck backlog after an error would mask the original exception.
                runtime.close(drain=False)
            self.model.train(was_training)
            if provider is not None:
                provider.bind_telemetry(NULL_TELEMETRY)
            # close() copied the telemetry private, so the handle stays
            # readable/exportable after the runtime is gone.
            self.last_telemetry = telemetry if telemetry.enabled else None

        return _percentile_report(
            mode, decision_latencies, compute_latencies, num_events_served,
            mean_async_lag_ms=mean_lag_ms,
            mean_staleness_ms=float(np.mean(staleness)) if staleness else 0.0,
            max_staleness_ms=float(np.max(staleness)) if staleness else 0.0,
            max_backlog=max_backlog,
            **_late_extra(provider),
        )

    def compare_modes(self, max_batches: int | None = None,
                      modes: tuple = SERVING_MODES,
                      runtime_config=None) -> dict[str, ServingReport]:
        """Run the same stream through several modes, resetting state between.

        The model's streaming state is reset before each run so every mode
        starts from the same blank mailbox/event store.
        """
        reports: dict[str, ServingReport] = {}
        for mode in modes:
            self.model.reset_state()
            reports[mode] = self.run(max_batches=max_batches, mode=mode,
                                     runtime_config=runtime_config)
        return reports
