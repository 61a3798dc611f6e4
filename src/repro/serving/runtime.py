"""Real multi-process serving runtime for the asynchronous propagation link.

The paper's central claim (§3.1, Figure 2) is that mail propagation is off
the decision path on real asynchronous workers; this module makes that claim
testable on an actual concurrent runtime (the ``"worker-pool"`` mode of
:class:`~repro.serving.service.ServingLoop`).

Dataflow
--------
::

    scorer (parent process)                 propagation workers (children)
    ───────────────────────                 ──────────────────────────────
    read shared mailbox  ──┐                ┌── task queue: (seq, row range,
    encode + score         │  submit(batch, │   embeddings) — no event payload
    apply z updates        ├──────────────► │
    append to EventStore ──┤  embeddings)   │  attach mmap EventStore (r/o)
    next batch ◄───────────┘                │  extend GraphView to rows < seq
         ▲                                  │  route_and_reduce  (concurrent,
         │ backpressure: submit blocks      │   CPU-heavy: φ, k-hop frontier,
         │ while backlog ≥ max_backlog      │   f, ρ on the SHARED store)
         │                                  │  deliver            (serialised
         └───── shared mailbox arrays ◄─────┘   in batch order, see below)
                (multiprocessing.shared_memory)

* **Shared-memory mailbox** — :meth:`repro.core.mailbox.Mailbox.share_memory`
  moves the mailbox state arrays into ``multiprocessing.shared_memory``
  segments; every worker :meth:`~repro.core.mailbox.Mailbox.attach`-es to the
  same physical pages, so a delivery is immediately visible to the scorer's
  next read with zero copying (the paper's key-value store).
* **One shared event store** — the scorer appends every batch to an
  mmap-backed :class:`~repro.storage.event_store.EventStore` and ships only
  ``(seq, row range, embeddings)`` through the queue.  Workers attach the
  store read-only and advance a
  :class:`~repro.storage.graph_view.GraphView` to exactly the rows strictly
  before each batch, so routing sees the same store prefix sequential
  propagation would — with **one** physical copy of the stream per machine
  instead of one private ``TemporalGraph`` per worker (the former scaling
  wall: per-worker ingest cost and O(events × workers) resident memory).
* **In-order delivery** — routing (the heavy part) runs concurrently across
  workers (batch ``seq`` goes to worker ``seq % num_workers``, and every
  worker routes over the whole graph); the final ψ write into the shared
  mailbox is serialised in strict batch order by a shared sequence counter,
  so the delivered-mail state is *identical* to single-process sequential
  propagation (the equivalence tests pin this, bit for bit, for the
  deterministic ``fifo``/``newest_overwrite`` policies).
* **Bounded backlog** — :meth:`ServingRuntime.submit` blocks while
  ``submitted − delivered ≥ max_backlog``, so memory stays bounded when the
  stream outruns the workers (backpressure is applied *behind* the decision:
  the score has already been returned when submit blocks).
* **Bounded-staleness watermark** — each worker records the ``end_time`` of
  the last batch it delivered; the watermark is their maximum, the end of
  the last fully delivered batch (delivery is in batch order).  A decision
  can report exactly how stale the mailbox snapshot it read was:
  ``batch.end_time − watermark``.
* **Graceful drain** — ``close()`` drains the backlog before tearing down;
  a worker receiving ``SIGTERM`` flushes every task already submitted before
  exiting, so no mail is ever lost on shutdown.  A *failed* ``start()``
  (worker dies or never reports ready) tears down symmetrically: workers are
  terminated, the mailbox returns to private memory, and every
  shared-memory segment and store file is removed — nothing leaks even when
  the runtime never ran a batch.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import queue as queue_module
import shutil
import signal
import tempfile
import time
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from ..core.mailbox import Mailbox, SharedMailboxHandle
from ..core.propagator import MailPropagator
from ..graph.batching import EventBatch
from ..obs import NULL_TELEMETRY, Telemetry, TelemetrySpec
from ..storage.event_store import EventStore, EventStoreHandle
from ..storage.graph_view import GraphView

__all__ = [
    "RuntimeConfig",
    "PropagatorSpec",
    "StalenessSnapshot",
    "RuntimeTelemetrySnapshot",
    "ServingRuntime",
]

# Every stage of the serving pipeline, by span name.  Scorer-side spans are
# recorded by writer 0, worker-side spans by writers 1..num_workers;
# ``queue.ride`` spans start on the scorer's clock (stamped at submit) and
# end on the worker's (observed at dequeue) — CLOCK_MONOTONIC is system-wide
# on Linux, so the two line up on one trace timeline.
SERVING_SPANS = (
    "scorer.decision",   # score + mailbox read + z update (critical path)
    "scorer.encode",     # embedding computation feeding the decision
    "scorer.submit",     # store append + enqueue (+ backpressure wait)
    "queue.ride",        # submit → dequeue, per task
    "worker.propagate",  # φ + k-hop routing + ρ (the heavy, concurrent half)
    "worker.apply",      # ψ delivery into the shared mailbox (+ order wait)
    "store.append",      # EventStore.append_batch
    "store.refresh",     # EventStore.refresh / remap
    "view.fold",         # GraphView adjacency maintenance (arg = rows folded)
    "features.lookup",   # feature-store gathers on the decision path
    "features.advance",  # derived-view maintenance (off the critical path)
)


def serving_telemetry_spec(trace_capacity: int = 32768) -> TelemetrySpec:
    """The telemetry layout of a serving run (spans above + pool metrics)."""
    return TelemetrySpec(
        spans=SERVING_SPANS,
        counters=("events.submitted", "batches.submitted",
                  "batches.delivered", "mails.delivered"),
        gauges=("backlog", "watermark"),
        trace_capacity=trace_capacity,
    )


@dataclass
class RuntimeConfig:
    """Deployment knobs of the multi-process serving runtime.

    ``max_backlog`` is the bounded queue depth: the largest number of
    submitted-but-undelivered propagation batches before ``submit`` blocks.
    ``start_method`` defaults to ``fork`` where available (cheap worker
    startup) and falls back to ``spawn``.  ``store_dir`` is where the shared
    mmap event store lives (a fresh temp directory by default; point it at a
    tmpfs / fast disk in deployment).
    """

    num_workers: int = 2
    max_backlog: int = 64
    start_method: str | None = None
    # Propagation is background work by definition: workers drop their CPU
    # priority by this many nice levels so that, on machines with fewer
    # cores than processes, the scheduler preempts the scorer's decision
    # path as little as possible (protects p99 decision latency).
    worker_nice: int = 10
    submit_timeout_s: float = 120.0
    drain_timeout_s: float = 300.0
    store_dir: str | None = None
    # Cross-process telemetry (shared-memory metrics + trace rings).  Off by
    # default: the instrumented call sites then hit the NULL_TELEMETRY no-op
    # sink, whose spans cost roughly one attribute access.
    telemetry: bool = False
    trace_capacity: int = 32768
    # Late-event admission policy (a repro.analytics.WatermarkPolicy) for
    # the run's feature-store folds.  Scorer-side only — never shipped to
    # workers; the serving loop installs it on its FeatureProvider before the
    # first publish.  None: keep whatever policy the provider already has.
    watermark_policy: object | None = None

    def validate(self) -> "RuntimeConfig":
        if self.num_workers <= 0:
            raise ValueError("num_workers must be positive")
        if self.max_backlog <= 0:
            raise ValueError("max_backlog must be positive")
        if self.trace_capacity <= 0:
            raise ValueError("trace_capacity must be positive")
        if self.worker_nice < 0:
            raise ValueError("worker_nice must be >= 0 (workers never outrank the scorer)")
        if self.start_method is not None and \
                self.start_method not in mp.get_all_start_methods():
            raise ValueError(f"unknown start method {self.start_method!r}")
        return self

    def resolved_start_method(self) -> str:
        if self.start_method is not None:
            return self.start_method
        return "fork" if "fork" in mp.get_all_start_methods() else "spawn"


@dataclass
class PropagatorSpec:
    """Picklable recipe for rebuilding an identical ``MailPropagator``.

    Workers cannot inherit the scorer's propagator object (it owns the
    mailbox and an unpicklable RNG lineage); instead each worker rebuilds one
    from this spec, attached to the shared mailbox and routing against the
    shared event store.  Because the samplers run stateless (pure functions
    of node, time and seed), every rebuilt propagator routes mail exactly
    like the original.
    """

    num_nodes: int
    edge_feature_dim: int
    kwargs: dict = field(default_factory=dict)

    @classmethod
    def from_propagator(cls, propagator: MailPropagator) -> "PropagatorSpec":
        return cls(
            num_nodes=propagator.num_nodes,
            edge_feature_dim=propagator.edge_feature_dim,
            kwargs={
                "num_hops": propagator.num_hops,
                "num_neighbors": propagator.num_neighbors,
                "sampling": propagator.sampling,
                "phi": propagator.phi,
                "rho": propagator.rho,
                "mail_passing": propagator.mail_passing,
                "time_decay": propagator.time_decay,
                "seed": propagator._seed,
                "engine": propagator.engine,
            },
        )

    def build(self, mailbox, graph=None) -> MailPropagator:
        """Rebuild the propagator; ``graph`` injects a shared read-only view."""
        return MailPropagator(mailbox=mailbox, num_nodes=self.num_nodes,
                              edge_feature_dim=self.edge_feature_dim,
                              graph=graph, **self.kwargs)


@dataclass
class StalenessSnapshot:
    """What the scorer knows about propagation progress at one instant.

    ``backlog`` counts submitted-but-undelivered batches; ``watermark`` is
    the event time up to which every mail has been delivered (stream time
    units); ``staleness_ms`` is the wall-clock age of the oldest
    still-undelivered propagation task (0.0 when the mailbox is fully
    caught up) — how stale, in real milliseconds, the mailbox snapshot a
    decision reads is.  ``event_lag(now)`` is the same gap on the stream's
    own clock, the quantity the paper's §4.7 robustness argument bounds.
    """

    backlog: int
    watermark: float
    staleness_ms: float = 0.0

    def event_lag(self, now: float) -> float:
        return max(0.0, now - self.watermark)


@dataclass
class RuntimeTelemetrySnapshot:
    """Live view of the worker pool, readable mid-run without pickling.

    Everything here comes from shared memory the workers publish into as
    they go: current ``backlog``, global and per-worker delivery progress,
    the event-time ``watermark`` each worker has reached, and each worker's
    mean submit→delivery lag so far.  ``metrics`` carries the aggregated
    counter/gauge/histogram snapshot when telemetry is enabled (empty dicts
    otherwise — the shared-array fields work either way).
    """

    backlog: int
    submitted: int
    delivered: int
    watermark: float
    staleness_ms: float
    per_worker_delivered: list
    per_worker_watermark: list
    per_worker_mean_lag_ms: list
    metrics: dict = field(default_factory=dict)


@dataclass
class _Task:
    """One unit of propagation work.

    Carries no event payload: the events are rows ``[start_row, stop_row)``
    of the shared store, appended by the scorer before this task was
    enqueued (the queue gives the happens-before edge that makes the rows
    visible to the worker's remap).
    """

    seq: int
    start_row: int
    stop_row: int
    src_embeddings: np.ndarray
    dst_embeddings: np.ndarray
    submitted_wall: float


@dataclass
class _WorkerSetup:
    """Static, picklable part of a worker's configuration."""

    worker_id: int
    mailbox_handle: SharedMailboxHandle
    store_handle: EventStoreHandle
    spec: PropagatorSpec
    nice_increment: int
    telemetry_handle: object = None  # TelemetryHandle | None


_SENTINEL = None


def _batch_from_store(store: EventStore, start_row: int, stop_row: int) -> EventBatch:
    """Reconstruct a task's batch from shared store rows (zero-copy views)."""
    return EventBatch(
        src=store.src[start_row:stop_row],
        dst=store.dst[start_row:stop_row],
        timestamps=store.timestamps[start_row:stop_row],
        edge_features=store.edge_features[start_row:stop_row],
        labels=store.labels[start_row:stop_row],
        edge_ids=np.arange(start_row, stop_row, dtype=np.int64),
    )


def _worker_main(setup: _WorkerSetup, task_queue, delivered, completed,
                 watermark, lag_sum, submitted, cond, ready) -> None:
    """Propagation worker: route concurrently against the shared store.

    Runs in a child process.  ``delivered`` is the shared count of batches
    delivered so far (the next ``seq`` allowed to apply);
    ``completed``/``watermark``/``lag_sum`` are per-worker slots of shared
    arrays.  All are guarded by ``cond``; ``submitted`` is written by the
    parent (under ``cond``) and read here only while draining after SIGTERM.
    """
    if setup.nice_increment:
        try:
            os.nice(setup.nice_increment)
        except OSError:
            pass  # a sandbox may forbid renicing; run at normal priority
    worker_id = setup.worker_id
    mailbox = Mailbox.attach(setup.mailbox_handle)
    store = setup.store_handle.open()
    # Writer slot 0 belongs to the scorer; workers publish as 1..num_workers.
    telemetry = NULL_TELEMETRY if setup.telemetry_handle is None \
        else Telemetry.attach(setup.telemetry_handle, writer=worker_id + 1)
    store.telemetry = telemetry
    # The view exposes exactly the store prefix routing is allowed to see;
    # it starts empty and is advanced per task to the rows before the batch.
    view = GraphView(store, start=0, stop=0)
    propagator = setup.spec.build(mailbox, graph=view)
    terminating = False

    def _on_sigterm(signum, frame):
        nonlocal terminating
        terminating = True

    signal.signal(signal.SIGTERM, _on_sigterm)
    # The parent's Ctrl-C must not kill workers mid-delivery; shutdown goes
    # through the sentinel / SIGTERM drain paths.
    signal.signal(signal.SIGINT, signal.SIG_IGN)

    # Setup is done: tell start() we are ready.  Without this barrier the
    # first few decisions race against worker startup for CPU, which shows
    # up as a fat warmup tail in p99 on core-starved machines.
    with cond:
        ready.value += 1
        cond.notify_all()

    tasks_seen = 0
    try:
        while True:
            try:
                task = task_queue.get(timeout=0.05)
            except queue_module.Empty:
                if terminating:
                    with cond:
                        outstanding = submitted[worker_id]
                    if tasks_seen >= outstanding:
                        break  # flushed everything ever submitted to us
                continue
            if task is _SENTINEL:
                break
            tasks_seen += 1
            telemetry.record_span("queue.ride", task.submitted_wall,
                                  time.monotonic(), arg=task.seq)

            # Make the batch's rows visible (remaps if the writer grew the
            # files), then advance the routing view to strictly-older events
            # only — the same prefix sequential propagation would see.
            store.ensure_visible(task.stop_row)
            view.extend_to(task.start_row)
            batch = _batch_from_store(store, task.start_row, task.stop_row)
            end_time = float(store.timestamps[task.stop_row - 1]) \
                if task.stop_row > task.start_row else None

            # Heavy half, concurrent: φ + k-hop routing + ρ against the
            # shared store prefix [0, start_row).
            with telemetry.span("worker.propagate",
                                arg=task.stop_row - task.start_row):
                nodes, mails, times, _ = propagator.route_and_reduce(
                    batch, task.src_embeddings, task.dst_embeddings
                )
            # Cheap half, serialised: wait for our turn in batch order, then
            # write into the shared mailbox.  Exclusivity needs no lock
            # around the write itself — only the worker whose seq matches the
            # counter may proceed, and only it advances it.  The apply span
            # covers the ordering wait too: serialisation stalls are exactly
            # what the trace should show.
            with telemetry.span("worker.apply", arg=task.seq):
                with cond:
                    while delivered.value != task.seq:
                        cond.wait(1.0)
                mailbox.deliver(nodes, mails, times)
            with cond:
                delivered.value = task.seq + 1
                completed[worker_id] += 1
                if end_time is not None:
                    watermark[worker_id] = max(watermark[worker_id], end_time)
                lag_sum[worker_id] += time.monotonic() - task.submitted_wall
                cond.notify_all()
            telemetry.count("batches.delivered")
            telemetry.count("mails.delivered", float(len(nodes)))
            if end_time is not None:
                telemetry.gauge("watermark", end_time)
    finally:
        mailbox.release_shared()
        store.close()
        telemetry.release_shared()


class ServingRuntime:
    """Ingress queue + scorer-side handle of the propagation worker pool.

    Lifecycle::

        runtime = ServingRuntime.for_model(model)   # shares model.mailbox
        runtime.start(initial_watermark=t0)
        for batch in stream:
            ...score on the critical path...
            runtime.submit(batch, src_emb, dst_emb)  # blocks iff backlog full
        runtime.close()    # drain, stop workers, un-share the mailbox

    Also usable as a context manager (``with ServingRuntime.for_model(m) as
    rt:``), which starts on enter and closes on exit.
    """

    def __init__(self, mailbox, spec: PropagatorSpec,
                 config: RuntimeConfig | None = None):
        self.mailbox = mailbox
        self.spec = spec
        self.config = (config or RuntimeConfig()).validate()
        self._started = False
        self._workers: list = []
        self._queues: list = []
        self._submitted = 0
        self._max_backlog_seen = 0
        self._store: EventStore | None = None
        self._store_path: str | None = None
        self._telemetry = NULL_TELEMETRY

    @classmethod
    def for_model(cls, model, config: RuntimeConfig | None = None) -> "ServingRuntime":
        """Build a runtime that propagates for an APAN-style model.

        The model must be at the start of a stream (``reset_state()``): the
        runtime's shared event store begins empty, so a propagator that has
        already ingested events would route differently than the workers do.
        """
        propagator = getattr(model, "propagator", None)
        mailbox = getattr(model, "mailbox", None)
        if propagator is None or mailbox is None:
            raise TypeError(
                "ServingRuntime.for_model needs a model with a mailbox and a "
                "mail propagator (an asynchronous CTDG model like APAN)"
            )
        if propagator.graph.num_events:
            raise ValueError(
                "the model's propagator has already ingested events; call "
                "model.reset_state() before attaching the serving runtime"
            )
        return cls(mailbox, PropagatorSpec.from_propagator(propagator), config)

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def start(self, initial_watermark: float = 0.0) -> "ServingRuntime":
        """Share the mailbox, create the shared store, fork the worker pool.

        Failure-safe: if a worker dies or never reports ready, everything is
        torn down (workers terminated, mailbox back in private memory,
        shared segments unlinked, store files removed) before the error
        propagates — a failed start leaks nothing.
        """
        if self._started:
            raise RuntimeError("runtime already started")
        num_workers = self.config.num_workers
        handle = self.mailbox.share_memory()
        try:
            # Telemetry first: everything after it can report through it, and
            # a failure at any later step releases its segments on unwind.
            if self.config.telemetry:
                self._telemetry = Telemetry.create(
                    serving_telemetry_spec(self.config.trace_capacity),
                    num_writers=num_workers + 1, writer=0,
                    writer_labels=("scorer",) + tuple(
                        f"worker-{i}" for i in range(num_workers)))
            else:
                self._telemetry = NULL_TELEMETRY
            self._store_path = tempfile.mkdtemp(prefix="apan-events-",
                                                dir=self.config.store_dir)
            self._store = EventStore.create_mmap(
                self._store_path, num_nodes=self.spec.num_nodes,
                edge_feature_dim=self.spec.edge_feature_dim)
            self._store.telemetry = self._telemetry
            ctx = mp.get_context(self.config.resolved_start_method())
            self._cond = ctx.Condition()
            self._delivered = ctx.Value("q", 0, lock=False)
            self._completed = ctx.Array("q", num_workers, lock=False)
            self._watermark = ctx.Array(
                "d", [float(initial_watermark)] * num_workers, lock=False)
            self._lag_sum = ctx.Array("d", num_workers, lock=False)
            self._submitted_shared = ctx.Array("q", num_workers, lock=False)
            self._ready = ctx.Value("q", 0, lock=False)
            telemetry_handle = self._telemetry.handle() \
                if self.config.telemetry else None
            self._queues = [ctx.Queue() for _ in range(num_workers)]
            self._workers = [
                ctx.Process(
                    target=_worker_main,
                    args=(_WorkerSetup(
                              worker_id=worker_id, mailbox_handle=handle,
                              store_handle=self._store.handle(), spec=self.spec,
                              nice_increment=self.config.worker_nice,
                              telemetry_handle=telemetry_handle),
                          queue, self._delivered, self._completed,
                          self._watermark, self._lag_sum,
                          self._submitted_shared, self._cond, self._ready),
                    name=f"propagation-worker-{worker_id}",
                    daemon=True,
                )
                for worker_id, queue in enumerate(self._queues)
            ]
            for worker in self._workers:
                worker.start()
            # Block until every worker has attached the mailbox + store and
            # rebuilt its propagator, so the first decision never competes
            # with worker startup for CPU.
            deadline = time.monotonic() + 60.0
            with self._cond:
                while self._ready.value < num_workers:
                    dead = [worker.name for worker in self._workers
                            if not worker.is_alive()]
                    if dead:
                        raise RuntimeError(
                            f"propagation worker(s) died during startup: "
                            f"{', '.join(dead)}")
                    if time.monotonic() > deadline:
                        raise RuntimeError("workers failed to become ready within 60s")
                    self._cond.wait(0.2)
        except BaseException:
            self._teardown_failed_start()
            raise
        self._submitted = 0
        self._max_backlog_seen = 0
        # (seq, wall time) of submissions not yet known to be delivered;
        # parent-local, pruned lazily by staleness().
        self._inflight_walls: deque[tuple[int, float]] = deque()
        self._started = True
        return self

    def _teardown_failed_start(self) -> None:
        for worker in self._workers:
            if worker.is_alive():
                worker.terminate()
        for worker in self._workers:
            worker.join(timeout=5.0)
        for queue in self._queues:
            queue.cancel_join_thread()
            queue.close()
        self._workers = []
        self._queues = []
        self.mailbox.release_shared()
        self._destroy_store()
        self._telemetry.release_shared()

    def _destroy_store(self) -> None:
        if self._store is not None:
            self._store.close()
            self._store = None
        if self._store_path is not None:
            shutil.rmtree(self._store_path, ignore_errors=True)
            self._store_path = None

    def __enter__(self) -> "ServingRuntime":
        if not self._started:
            self.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close(drain=exc_type is None)

    def close(self, drain: bool = True) -> None:
        """Stop the pool; with ``drain`` (default) flush the backlog first.

        Always leaves the mailbox usable in this process: its final state is
        copied back into private memory, the shared segments are unlinked
        and the store files are removed.
        """
        if not self._started:
            return
        try:
            if drain:
                self.drain()
        finally:
            for queue in self._queues:
                queue.put(_SENTINEL)
            for worker in self._workers:
                worker.join(timeout=30.0)
            for worker in self._workers:
                if worker.is_alive():  # unresponsive: escalate
                    worker.terminate()
                    worker.join(timeout=5.0)
            for queue in self._queues:
                # Never wait on the feeder thread: if a worker died with
                # tasks still buffered, the pipe stays full and join_thread
                # would block forever.  Anything unread is garbage by now.
                queue.cancel_join_thread()
                queue.close()
            self.mailbox.release_shared()
            self._destroy_store()
            # Owner release copies the metrics/trace data into private
            # memory before unlinking, so the telemetry stays exportable
            # (``runtime.telemetry.write_chrome_trace(...)``) after close.
            self._telemetry.release_shared()
            self._workers = []
            self._queues = []
            self._started = False

    # ------------------------------------------------------------------ #
    # Hot path
    # ------------------------------------------------------------------ #
    def _prune_inflight(self, delivered: int) -> None:
        """Forget submit walls of delivered batches (at most ``max_backlog`` stay)."""
        while self._inflight_walls and self._inflight_walls[0][0] < delivered:
            self._inflight_walls.popleft()

    def submit(self, batch: EventBatch, src_embeddings: np.ndarray,
               dst_embeddings: np.ndarray) -> int:
        """Append the batch to the shared store and enqueue its propagation.

        Returns the batch's sequence number.  Blocks while the backlog is at
        ``max_backlog`` (bounded-depth backpressure).  This sits *behind*
        the decision on the serving path: the score has already been
        produced when the producer blocks here.
        """
        if not self._started:
            raise RuntimeError("runtime is not started")
        telemetry = self._telemetry
        deadline = time.monotonic() + self.config.submit_timeout_s
        worker_id = self._submitted % self.config.num_workers
        with telemetry.span("scorer.submit") as submit_span:
            with self._cond:
                while self._submitted - self._delivered.value >= self.config.max_backlog:
                    self._check_workers_alive()
                    if time.monotonic() > deadline:
                        raise RuntimeError(
                            f"backpressure timeout: backlog stuck at "
                            f"{self._submitted - self._delivered.value} for "
                            f"{self.config.submit_timeout_s}s"
                        )
                    self._cond.wait(0.5)
                seq = self._submitted
                self._submitted += 1
                self._submitted_shared[worker_id] += 1
                delivered = self._delivered.value
                backlog = self._submitted - delivered
                self._max_backlog_seen = max(self._max_backlog_seen, backlog)
            self._prune_inflight(delivered)
            # Publish the events before the task that references them: the
            # store's header publish happens-before the queue put, so a worker
            # that sees the task can always remap to the rows it names.
            start_row = self._store.num_events
            self._store.append_batch(batch.src, batch.dst, batch.timestamps,
                                     batch.edge_features, batch.labels)
            task = _Task(
                seq=seq,
                start_row=start_row,
                stop_row=self._store.num_events,
                src_embeddings=np.asarray(src_embeddings, dtype=np.float64),
                dst_embeddings=np.asarray(dst_embeddings, dtype=np.float64),
                submitted_wall=time.monotonic(),
            )
            self._inflight_walls.append((seq, task.submitted_wall))
            self._queues[worker_id].put(task)
            submit_span.set_arg(task.stop_row - start_row)
        telemetry.gauge("backlog", float(backlog))
        telemetry.count("batches.submitted")
        telemetry.count("events.submitted", float(task.stop_row - start_row))
        return seq

    def drain(self, timeout_s: float | None = None) -> None:
        """Block until every submitted batch has been delivered."""
        if not self._started:
            return
        deadline = time.monotonic() + (timeout_s if timeout_s is not None
                                       else self.config.drain_timeout_s)
        with self._cond:
            while self._delivered.value < self._submitted:
                self._check_workers_alive()
                if time.monotonic() > deadline:
                    raise RuntimeError(
                        f"drain timeout: {self._submitted - self._delivered.value} "
                        f"batches still undelivered"
                    )
                self._cond.wait(0.5)

    # ------------------------------------------------------------------ #
    # Observability
    # ------------------------------------------------------------------ #
    def staleness(self) -> StalenessSnapshot:
        """Backlog depth, delivered-event-time watermark, wall staleness."""
        if not self._started:
            return StalenessSnapshot(backlog=0, watermark=float("inf"))
        with self._cond:
            delivered = self._delivered.value
            backlog = self._submitted - delivered
            watermark = max(self._watermark[:])
        self._prune_inflight(delivered)
        staleness_ms = 0.0
        if backlog and self._inflight_walls:
            staleness_ms = 1000.0 * (time.monotonic() - self._inflight_walls[0][1])
        return StalenessSnapshot(backlog=backlog, watermark=watermark,
                                 staleness_ms=staleness_ms)

    @property
    def telemetry(self):
        """The runtime's telemetry sink (``NULL_TELEMETRY`` unless enabled).

        While started it aggregates live from shared memory; after ``close``
        it keeps serving reads (and the Chrome trace export) from private
        copies of the final state.
        """
        return self._telemetry

    def telemetry_snapshot(self) -> RuntimeTelemetrySnapshot:
        """Live pool progress mid-run, straight from shared memory.

        Works whether or not ``config.telemetry`` is on — the shared
        progress arrays always exist; only ``metrics`` needs the telemetry
        segments.  Safe to call from the scorer at any time (one condition
        acquisition, no pickling, workers never pause).
        """
        staleness = self.staleness()
        if not self._started:
            return RuntimeTelemetrySnapshot(
                backlog=0, submitted=self._submitted, delivered=self._submitted,
                watermark=staleness.watermark, staleness_ms=0.0,
                per_worker_delivered=[], per_worker_watermark=[],
                per_worker_mean_lag_ms=[],
                metrics=self._telemetry.snapshot())
        with self._cond:
            delivered = self._delivered.value
            per_worker_completed = list(self._completed[:])
            per_worker_watermark = list(self._watermark[:])
            per_worker_lag_sum = list(self._lag_sum[:])
        per_worker_mean_lag_ms = [
            1000.0 * lag / done if done else 0.0
            for lag, done in zip(per_worker_lag_sum, per_worker_completed)
        ]
        return RuntimeTelemetrySnapshot(
            backlog=staleness.backlog,
            submitted=self._submitted,
            delivered=delivered,
            watermark=staleness.watermark,
            staleness_ms=staleness.staleness_ms,
            per_worker_delivered=per_worker_completed,
            per_worker_watermark=per_worker_watermark,
            per_worker_mean_lag_ms=per_worker_mean_lag_ms,
            metrics=self._telemetry.snapshot(),
        )

    @property
    def submitted_count(self) -> int:
        return self._submitted

    @property
    def delivered_count(self) -> int:
        if not self._started:
            return self._submitted
        with self._cond:
            return self._delivered.value

    @property
    def max_backlog_seen(self) -> int:
        """Backlog high-water mark observed at submission time."""
        return self._max_backlog_seen

    @property
    def store(self) -> EventStore | None:
        """The shared event store (while started); None otherwise."""
        return self._store

    def mean_delivery_lag_ms(self) -> float:
        """Mean wall-clock time from submit to delivery completion."""
        if not self._started:
            return 0.0
        with self._cond:
            delivered = self._delivered.value
            if delivered == 0:
                return 0.0
            return 1000.0 * sum(self._lag_sum[:]) / delivered

    def workers_alive(self) -> int:
        return sum(worker.is_alive() for worker in self._workers)

    def worker_pids(self) -> list[int]:
        return [worker.pid for worker in self._workers]

    # ------------------------------------------------------------------ #
    def _check_workers_alive(self) -> None:
        dead = [worker.name for worker in self._workers if not worker.is_alive()]
        if dead:
            raise RuntimeError(
                f"propagation worker(s) died: {', '.join(dead)} — "
                "the backlog can never drain"
            )
