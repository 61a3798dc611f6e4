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
    read shared mailbox  ──┐                ┌── ring slot seq % max_backlog:
    encode + score         │  submit(batch, │   (seq, row range, submit wall)
    apply z updates        ├──────────────► │   + embedding rows — no pickle
    append to EventStore ──┤  embeddings)   │  attach mmap EventStore (r/o)
    next batch ◄───────────┘                │  extend GraphView to rows < seq
         ▲                                  │  route_and_reduce  (concurrent,
         │ backpressure: submit takes a     │   CPU-heavy: φ, k-hop frontier,
         │ ``space`` permit, returned       │   f, ρ on the SHARED store)
         │ after apply                      │  deliver            (serialised
         └───── shared mailbox arrays ◄─────┘   in batch order, see below)
                (multiprocessing.shared_memory)

* **Shared-memory mailbox** — :meth:`repro.core.mailbox.Mailbox.share_memory`
  moves the mailbox state arrays into ``multiprocessing.shared_memory``
  segments; every worker :meth:`~repro.core.mailbox.Mailbox.attach`-es to the
  same physical pages, so a delivery is immediately visible to the scorer's
  next read with zero copying (the paper's key-value store).
* **One shared event store** — the scorer appends every batch to an
  mmap-backed :class:`~repro.storage.event_store.EventStore`; the hand-off
  names only the batch's row range.  Workers attach the store read-only and
  advance a :class:`~repro.storage.graph_view.GraphView` to exactly the rows
  strictly before each batch, so routing sees the same store prefix
  sequential propagation would — with **one** physical copy of the stream
  per machine instead of one private event store per worker (the
  former scaling wall: per-worker ingest cost and O(events × workers)
  resident memory).
* **Hand-off ring** — ``submit`` copies batch ``seq``'s row range, submit
  wall time and embeddings into shared slot ``seq % max_backlog`` and wakes
  worker ``seq % num_workers`` through its ``items`` semaphore: no pickling,
  no feeder thread, no pipe.  A batch larger than a slot drains the backlog
  and swaps in slots of twice the rows under a new generation, which workers
  re-attach to by name.  Each header word (``delivered``, the stop word,
  per-worker progress) has one writer, so progress reads take no lock.
* **In-order delivery** — routing (the heavy part) runs concurrently across
  workers; the ψ write into the shared mailbox is serialised in batch order
  by per-worker ``turn`` semaphores (the worker that applied ``seq``
  releases the turn of ``seq + 1``'s owner), so the delivered-mail state is
  *identical* to sequential propagation (the equivalence tests pin this,
  bit for bit, for the deterministic ``fifo``/``newest_overwrite`` policies).
* **Bounded backlog** — ``submit`` takes one of ``max_backlog`` ``space``
  permits and the worker returns it after apply, so memory stays bounded
  when the stream outruns the workers (backpressure is applied *behind* the
  decision: the score has already been returned when submit blocks).
* **Bounded-staleness watermark** — each worker records the ``end_time`` of
  the last batch it delivered; the watermark is their maximum, the end of
  the last fully delivered batch (delivery is in batch order).  A decision
  can report exactly how stale the mailbox snapshot it read was:
  ``batch.end_time − watermark``.
* **Graceful drain** — ``close()`` drains the backlog before tearing down;
  a worker receiving ``SIGTERM`` flushes every task already submitted before
  exiting, so no mail is ever lost on shutdown.  Every wait is a timed
  acquire that re-checks stop, liveness and deadlines.  A *failed*
  ``start()`` (worker dies or never reports ready) tears down symmetrically:
  workers are terminated, the mailbox returns to private memory, and every
  shared-memory segment (ring included) and store file is removed — nothing
  leaks even when the runtime never ran a batch.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import secrets
import shutil
import signal
import tempfile
import time
from dataclasses import dataclass, field

import numpy as np

from ..core.mailbox import Mailbox, MailboxHandle
from ..core.propagator import MailPropagator
from ..graph.batching import EventBatch
from ..obs import NULL_TELEMETRY, Telemetry, TelemetrySpec
from ..obs._shm import BundleHandle, SharedArrayBundle, named_handle
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
# end on the worker's (observed when it takes the ring slot) —
# CLOCK_MONOTONIC is system-wide on Linux, so the two line up on one trace
# timeline.
SERVING_SPANS = (
    "scorer.decision",   # score + mailbox read + z update (critical path)
    "scorer.encode",     # embedding computation feeding the decision
    "scorer.submit",     # store append + ring slot write (+ backpressure wait)
    "queue.ride",        # submit → worker takes the slot, per task
    "worker.propagate",  # φ + k-hop routing + ρ (the heavy, concurrent half)
    "worker.apply",      # ψ delivery into the shared mailbox (+ order wait)
    "worker.order_wait", # inside worker.apply: waiting for the batch's turn
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

    ``max_backlog`` is the number of hand-off ring slots: the largest number
    of submitted-but-undelivered propagation batches before ``submit``
    blocks.
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
    of node, time and seed) and a propagator resolves ``seed=None`` to
    concrete entropy when it is built, every rebuilt propagator routes and
    projects mail exactly like the original.
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


# Rows of a ring slot before the first growth: the paper's batch size.
_SLOT_ROWS = 200
# How often a blocked party re-checks the stop word, SIGTERM, worker liveness
# and its deadline.  A release wakes a waiter at once; this only bounds how
# long a stop or a death goes unnoticed.
_POLL_S = 0.05
# Words of the ring's ``control`` array, each with one writer: the turn
# holder writes DELIVERED, the scorer the other three.
_DELIVERED, _STOP, _GENERATION, _CAPACITY = range(4)


def _slabs(prefix: str, generation: int, num_slots: int, capacity: int,
           dim: int) -> tuple[str, dict]:
    """Segment-name prefix and specs of one ring generation's embeddings."""
    return f"{prefix}g{generation}_", {
        name: ((num_slots, capacity, dim), np.float64) for name in ("src", "dst")}


@dataclass
class _WorkerSetup:
    """Static, picklable part of a worker's configuration."""

    worker_id: int
    mailbox_handle: MailboxHandle
    store_handle: EventStoreHandle
    ring_handle: BundleHandle
    slab_prefix: str  # names every generation's embedding arrays (_slabs)
    spec: PropagatorSpec
    nice_increment: int
    telemetry_handle: object = None  # TelemetryHandle | None


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


def _worker_main(setup: _WorkerSetup, items, my_turn, next_turn, space,
                 ready) -> None:
    """Propagation worker: route concurrently against the shared store.

    Runs in a child process.  Worker ``w`` of ``W`` owns batches ``w``,
    ``w + W``, ...; each ``items`` permit is the next one, waiting in ring
    slot ``seq % max_backlog``.  ``my_turn``/``next_turn`` order the mailbox
    writes by ``seq``; ``space`` is returned after apply.
    """
    if setup.nice_increment:
        try:
            os.nice(setup.nice_increment)
        except OSError:
            pass  # a sandbox may forbid renicing; run at normal priority
    worker_id = setup.worker_id
    mailbox = Mailbox.attach(setup.mailbox_handle)
    store = setup.store_handle.open()
    ring = SharedArrayBundle.attach(setup.ring_handle)
    control, slots, walls = ring["control"], ring["slots"], ring["walls"]
    completed, submitted = ring["counts"]
    watermark, lag_sum = ring["progress"]
    num_slots, num_workers = len(slots), len(submitted)
    slabs, generation = None, 0  # generations count from 1
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
    # through the stop word / SIGTERM drain paths.
    signal.signal(signal.SIGINT, signal.SIG_IGN)

    def run_task(seq: int) -> bool:
        """Propagate and apply batch ``seq``; False if stopped mid-wait."""
        nonlocal slabs, generation
        slot = seq % num_slots
        if slots[slot, 0] != seq:
            raise RuntimeError(
                f"ring slot {slot} holds batch {slots[slot, 0]}, not {seq}")
        start_row, stop_row = int(slots[slot, 1]), int(slots[slot, 2])
        rows = stop_row - start_row
        submitted_wall = float(walls[slot])
        telemetry.record_span("queue.ride", submitted_wall, time.monotonic(), arg=seq)
        if control[_GENERATION] != generation:
            # The scorer grew the slots (after draining, so nothing here still
            # reads the old arrays): map the new generation by name.
            if slabs is not None:
                slabs.release(keep=False)
            generation = int(control[_GENERATION])
            slabs = SharedArrayBundle.attach(named_handle(*_slabs(
                setup.slab_prefix, generation, num_slots,
                int(control[_CAPACITY]), setup.spec.edge_feature_dim)))

        # Make the batch's rows visible (remaps if the writer grew the
        # files), then advance the routing view to strictly-older events
        # only — the same prefix sequential propagation would see.
        store.ensure_visible(stop_row)
        view.extend_to(start_row)
        batch = _batch_from_store(store, start_row, stop_row)
        end_time = float(store.timestamps[stop_row - 1]) if rows else None

        # Heavy half, concurrent: φ + k-hop routing + ρ against the shared
        # store prefix [0, start_row).
        with telemetry.span("worker.propagate", arg=rows):
            nodes, mails, times, _ = propagator.route_and_reduce(
                batch, slabs["src"][slot, :rows], slabs["dst"][slot, :rows])
        # Cheap half, serialised: wait for our turn in batch order, then
        # write into the shared mailbox.  Exclusivity needs no lock around
        # the write itself — only the turn holder may proceed.  The apply
        # span covers the ordering wait too (its own child span times it).
        with telemetry.span("worker.apply", arg=seq):
            with telemetry.span("worker.order_wait", arg=seq):
                while not my_turn.acquire(timeout=_POLL_S):
                    if control[_STOP]:
                        return False
            mailbox.deliver(nodes, mails, times)
            # Publish order matters to the lock-free readers: a watermark is
            # never behind ``delivered``, nor a lag sum behind ``completed``.
            if end_time is not None:
                watermark[worker_id] = max(watermark[worker_id], end_time)
                telemetry.gauge("watermark", end_time)
            control[_DELIVERED] = seq + 1
            next_turn.release()
        lag_sum[worker_id] += time.monotonic() - submitted_wall
        completed[worker_id] += 1
        # Last: a drain that holds every permit sees this worker's words.
        space.release()
        telemetry.count("batches.delivered")
        telemetry.count("mails.delivered", float(len(nodes)))
        return True

    # Setup is done: tell start() we are ready.  Without this barrier the
    # first few decisions race against worker startup for CPU, which shows
    # up as a fat warmup tail in p99 on core-starved machines.
    ready.release()

    tasks_seen = 0
    try:
        while True:
            if not items.acquire(timeout=_POLL_S):
                if control[_STOP] or (terminating
                                      and tasks_seen >= submitted[worker_id]):
                    break  # stopped, or flushed everything ever submitted to us
                continue
            if control[_STOP] or not run_task(worker_id + tasks_seen * num_workers):
                break
            tasks_seen += 1
    finally:
        mailbox.release_shared()
        store.close()
        telemetry.release_shared()


class ServingRuntime:
    """Scorer-side handle of the propagation worker pool and its hand-off ring.

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
        self._submitted = 0
        self._max_backlog_seen = 0
        self._store: EventStore | None = None
        self._store_path: str | None = None
        self._ring: SharedArrayBundle | None = None
        self._slabs: SharedArrayBundle | None = None
        self._items: list = []
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
        """Share the mailbox, create the store and the ring, fork the pool.

        Failure-safe: if a worker dies or never reports ready, everything is
        torn down (workers terminated, mailbox back in private memory,
        shared segments unlinked, store files removed) before the error
        propagates — a failed start leaks nothing.
        """
        if self._started:
            raise RuntimeError("runtime already started")
        num_workers, num_slots = self.config.num_workers, self.config.max_backlog
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
            self._ring = SharedArrayBundle.create({
                "control": ((4,), np.int64),
                # Rows: completed (worker w writes column w), submitted (scorer).
                "counts": ((2, num_workers), np.int64),
                # Rows: watermark, lag_sum (worker w writes column w).
                "progress": ((2, num_workers), np.float64),
                "slots": ((num_slots, 3), np.int64),  # seq, start_row, stop_row
                "walls": ((num_slots,), np.float64),  # submit wall time
            })
            self._ring["progress"][0] = float(initial_watermark)
            self._slab_prefix = f"apan{secrets.token_hex(4)}"
            self._grow(0)
            ctx = mp.get_context(self.config.resolved_start_method())
            self._space = ctx.Semaphore(num_slots)
            self._items = [ctx.Semaphore(0) for _ in range(num_workers)]
            turns = [ctx.Semaphore(int(w == 0)) for w in range(num_workers)]
            ready = ctx.Semaphore(0)
            telemetry_handle = self._telemetry.handle() \
                if self.config.telemetry else None
            self._workers = [
                ctx.Process(
                    target=_worker_main,
                    args=(_WorkerSetup(
                              worker_id=worker_id, mailbox_handle=handle,
                              store_handle=self._store.handle(),
                              ring_handle=self._ring.handle(),
                              slab_prefix=self._slab_prefix, spec=self.spec,
                              nice_increment=self.config.worker_nice,
                              telemetry_handle=telemetry_handle),
                          self._items[worker_id], turns[worker_id],
                          turns[(worker_id + 1) % num_workers], self._space,
                          ready),
                    name=f"propagation-worker-{worker_id}",
                    daemon=True,
                )
                for worker_id in range(num_workers)
            ]
            for worker in self._workers:
                worker.start()
            # Block until every worker has attached the mailbox + store and
            # rebuilt its propagator, so the first decision never competes
            # with worker startup for CPU.
            deadline = time.monotonic() + 60.0
            for _ in range(num_workers):
                self._acquire(ready, deadline, " during startup",
                              lambda: "workers failed to become ready within 60s")
        except BaseException:
            self._stop_workers(timeout_s=5.0)
            raise
        self._submitted = 0
        self._max_backlog_seen = 0
        self._started = True
        return self

    def _grow(self, rows: int) -> None:
        """Swap in ring embedding arrays of at least ``rows`` rows per slot.

        Called with no batch in flight (at start, or after a drain), so no
        worker still reads the old generation; each re-attaches by name when
        it sees the generation word change.  Keeps no ring-array view in a
        local (nor does submit): a traceback would keep it past teardown.
        """
        capacity = max(int(self._ring["control"][_CAPACITY]), _SLOT_ROWS)
        while capacity < rows:
            capacity *= 2
        generation = int(self._ring["control"][_GENERATION]) + 1
        prefix, specs = _slabs(self._slab_prefix, generation,
                               self.config.max_backlog, capacity,
                               self.spec.edge_feature_dim)
        slabs = SharedArrayBundle.create(specs, prefix=prefix)
        if self._slabs is not None:
            self._slabs.release(keep=False)
        self._slabs = slabs
        self._ring["control"][[_CAPACITY, _GENERATION]] = capacity, generation

    def _stop_workers(self, timeout_s: float) -> None:
        """Stop and reap the workers, then release every shared resource."""
        if self._ring is not None:
            self._ring["control"][_STOP] = 1
            for items in self._items:
                items.release()  # wake idle workers to see the stop word
        for worker in self._workers:
            worker.join(timeout=timeout_s)
        for worker in self._workers:
            if worker.is_alive():  # unresponsive: escalate
                worker.terminate()
                worker.join(timeout=5.0)
        self._workers, self._items, self._space = [], [], None
        for bundle in (self._ring, self._slabs):
            if bundle is not None:
                bundle.release(keep=False)
        self._ring = self._slabs = None
        self.mailbox.release_shared()
        if self._store is not None:
            self._store.close()
            self._store = None
        if self._store_path is not None:
            shutil.rmtree(self._store_path, ignore_errors=True)
            self._store_path = None
        # Owner release copies the metrics/trace data into private memory
        # before unlinking, so the telemetry stays exportable
        # (``runtime.telemetry.write_chrome_trace(...)``) after close.
        self._telemetry.release_shared()

    def __enter__(self) -> "ServingRuntime":
        if not self._started:
            self.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close(drain=exc_type is None)

    def close(self, drain: bool = True) -> None:
        """Stop the pool; with ``drain`` (default) flush the backlog first.

        Without ``drain`` (the error paths), live workers still get up to
        30 s to deliver what was submitted, but a dead or stuck pool raises
        nothing here, so the error being handled is the one that surfaces.
        Always leaves the mailbox usable in this process: its final state is
        copied back into private memory, the shared segments are unlinked and
        the store files are removed.
        """
        if not self._started:
            return
        try:
            self.drain(None if drain else 30.0)
        except RuntimeError:
            if drain:
                raise
        finally:
            self._started = False
            self._stop_workers(timeout_s=30.0)

    # ------------------------------------------------------------------ #
    # Hot path
    # ------------------------------------------------------------------ #
    def _acquire(self, semaphore, deadline: float, waiting: str, message) -> None:
        """Take one permit, re-checking worker liveness and ``deadline``."""
        while not semaphore.acquire(timeout=_POLL_S):
            dead = [worker.name for worker in self._workers if not worker.is_alive()]
            if dead:
                raise RuntimeError(
                    f"propagation worker(s) died{waiting}: {', '.join(dead)}")
            if time.monotonic() > deadline:
                raise RuntimeError(message())

    def submit(self, batch: EventBatch, src_embeddings: np.ndarray,
               dst_embeddings: np.ndarray) -> int:
        """Append the batch to the shared store and hand it to a worker.

        Returns the batch's sequence number.  Blocks while the backlog is at
        ``max_backlog`` (bounded-depth backpressure).  This sits *behind*
        the decision on the serving path: the score has already been
        produced when the producer blocks here.  Embeddings must have shape
        ``(len(batch), edge_feature_dim)``; anything else raises
        ``ValueError`` before any side effect.
        """
        if not self._started:
            raise RuntimeError("runtime is not started")
        rows = len(batch)
        expected = (rows, self.spec.edge_feature_dim)
        if np.shape(src_embeddings) != expected or np.shape(dst_embeddings) != expected:
            raise ValueError(
                f"embeddings must have shape {expected}, got "
                f"{np.shape(src_embeddings)} and {np.shape(dst_embeddings)}")
        telemetry, ring = self._telemetry, self._ring
        seq = self._submitted
        worker_id, slot = seq % self.config.num_workers, seq % self.config.max_backlog
        with telemetry.span("scorer.submit") as submit_span:
            if rows > ring["control"][_CAPACITY]:
                self.drain()
                self._grow(rows)
            self._acquire(
                self._space, time.monotonic() + self.config.submit_timeout_s,
                " under backpressure",
                lambda: f"backpressure timeout: backlog stuck at "
                        f"{self._submitted - self.delivered_count} for "
                        f"{self.config.submit_timeout_s}s")
            # Publish the events before the slot that references them: the
            # store's header publish happens-before the items release, so a
            # worker that takes the slot can always remap to its rows.
            start_row = self._store.num_events
            try:
                self._store.append_batch(batch.src, batch.dst, batch.timestamps,
                                         batch.edge_features, batch.labels)
            except BaseException:
                self._space.release()
                raise
            slabs = self._slabs
            slabs["src"][slot, :rows] = src_embeddings
            slabs["dst"][slot, :rows] = dst_embeddings
            ring["slots"][slot] = (seq, start_row, self._store.num_events)
            ring["walls"][slot] = time.monotonic()
            self._submitted = seq + 1
            ring["counts"][1, worker_id] += 1
            self._items[worker_id].release()
            backlog = self._submitted - int(ring["control"][_DELIVERED])
            self._max_backlog_seen = max(self._max_backlog_seen, backlog)
            submit_span.set_arg(rows)
        telemetry.gauge("backlog", float(backlog))
        telemetry.count("batches.submitted")
        telemetry.count("events.submitted", float(rows))
        return seq

    def drain(self, timeout_s: float | None = None) -> None:
        """Block until every submitted batch has been delivered."""
        if not self._started:
            return
        deadline = time.monotonic() + (timeout_s if timeout_s is not None
                                       else self.config.drain_timeout_s)
        # Every undelivered batch holds one ``space`` permit until its worker
        # has applied it and published its progress words: holding all of
        # them means the pool is idle.
        held = 0
        try:
            while held < self.config.max_backlog:
                self._acquire(
                    self._space, deadline, "",
                    lambda: f"drain timeout: {self._submitted - self.delivered_count} "
                            f"batches still undelivered")
                held += 1
        finally:
            for _ in range(held):
                self._space.release()

    # ------------------------------------------------------------------ #
    # Observability — lock-free reads of the ring header
    # ------------------------------------------------------------------ #
    def staleness(self) -> StalenessSnapshot:
        """Backlog depth, delivered-event-time watermark, wall staleness."""
        if not self._started:
            return StalenessSnapshot(backlog=0, watermark=float("inf"))
        ring = self._ring
        delivered = int(ring["control"][_DELIVERED])
        backlog = self._submitted - delivered
        staleness_ms = 0.0
        if backlog:
            # The oldest undelivered batch's slot cannot be reused before it
            # is delivered, and only this process reuses slots.
            oldest_wall = ring["walls"][delivered % self.config.max_backlog]
            staleness_ms = 1000.0 * (time.monotonic() - oldest_wall)
        return StalenessSnapshot(backlog=backlog,
                                 watermark=float(ring["progress"][0].max()),
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

        Works whether or not ``config.telemetry`` is on — the ring header
        always exists; only ``metrics`` needs the telemetry segments.  Safe
        to call from the scorer at any time (no lock, no pickling, workers
        never pause).
        """
        staleness = self.staleness()
        completed, watermarks, lag_sums = [], [], []
        if self._started:
            completed = self._ring["counts"][0].tolist()
            watermarks, lag_sums = self._ring["progress"].tolist()
        return RuntimeTelemetrySnapshot(
            backlog=staleness.backlog,
            submitted=self._submitted,
            delivered=self._submitted - staleness.backlog,
            watermark=staleness.watermark,
            staleness_ms=staleness.staleness_ms,
            per_worker_delivered=completed,
            per_worker_watermark=watermarks,
            per_worker_mean_lag_ms=[1000.0 * lag / done if done else 0.0
                                    for lag, done in zip(lag_sums, completed)],
            metrics=self._telemetry.snapshot(),
        )

    @property
    def submitted_count(self) -> int:
        return self._submitted

    @property
    def delivered_count(self) -> int:
        if not self._started:
            return self._submitted
        return int(self._ring["control"][_DELIVERED])

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
        # Count first: a worker adds its lag before its count.
        completed = int(self._ring["counts"][0].sum()) if self._started else 0
        if not completed:
            return 0.0
        return 1000.0 * float(self._ring["progress"][1].sum()) / completed

    def workers_alive(self) -> int:
        return sum(worker.is_alive() for worker in self._workers)

    def worker_pids(self) -> list[int]:
        return [worker.pid for worker in self._workers]
