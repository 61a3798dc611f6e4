"""One run of one workload: set up, serve the stream, check, measure.

The loop is the deployed decision path written once for both pacing modes:
sample staleness, (feature lookup,) ``compute_embeddings`` + ``link_logits``
— the score — then ``apply_embedding_updates`` and propagation, submitted to
the worker pool or run inline.  Open loop releases events on the stream's own
clock and times each from when it was *due*; closed loop serves fixed
200-event batches back to back.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import statistics
import time

import numpy as np

from repro import APAN, APANConfig
from repro.analytics import AnalyticsFeatureProvider, WatermarkPolicy
from repro.graph import EventBatch
from repro.nn import no_grad
from repro.serving import RuntimeConfig, ServingRuntime

from . import OUT_DIR
from .metrics import DECISION_SLO_MS
from .tracing import Tracer, clock, write_chrome_trace
from .workloads import BATCH_SIZE, WARMUP_SHARE, Workload

MAX_BACKLOG = 8
WORKER_NICE = 10
SETUP_REPEATS = 7          # setup_s is the median of this many set-ups
OPEN_LOOP_LEAD_S = 0.05    # the stream's clock starts this long after set-up
TRACE_CAPACITY = 1 << 18   # program-side span ring, per writer (traced runs)
_TICK = os.sysconf("SC_CLK_TCK")


# ---------------------------------------------------------------------- #
# /proc readings (the scorer and its workers, from outside)
# ---------------------------------------------------------------------- #
def _cpu_seconds(pid: int) -> float:
    """user+sys CPU of one process so far, from ``/proc/<pid>/stat``."""
    with open(f"/proc/{pid}/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _TICK


def _peak_rss_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in /proc/{pid}/status")


def _percentile(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


# ---------------------------------------------------------------------- #
class Run:
    """State of one run; ``execute`` returns the detail record."""

    def __init__(self, workload: Workload, seed: int, seconds: float,
                 traced: bool):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.traced = traced
        self.stream = workload.generate(seed, seconds)
        self.n = self.stream.num_events
        self.num_nodes = self.stream.num_nodes
        self.config = APANConfig(dropout=0.0)
        self.policy = None
        self.feature_store = None
        if workload.features:
            # The provider reads a store that already holds the stream and
            # publishes its prefix batch by batch; loading it is input
            # generation, not set-up.
            self.feature_store = self.stream.to_event_store()
            max_lateness = self.stream.metadata["scenario"]["invariants"][
                "max_lateness"]
            self.policy = WatermarkPolicy.fold_late(0.5 * max_lateness)
        self.store_dir = OUT_DIR / f"store-{os.getpid()}"
        self.tracer = Tracer() if traced else None
        self.model = self.provider = self.runtime = None

    # ------------------------------------------------------------------ #
    # Set-up
    # ------------------------------------------------------------------ #
    def _build(self) -> float:
        """Model, provider and started runtime; returns ``start()`` seconds."""
        stream, workload = self.stream, self.workload
        self.model = APAN(self.num_nodes, stream.edge_feature_dim, self.config)
        self.model.eval()
        # A fresh stream: also touches every state page before the clock runs.
        self.model.reset_state()
        if workload.features:
            span = float(stream.timestamps[-1] - stream.timestamps[0]) + 1.0
            # A window wider than the stream: the ring horizon never drops,
            # so the policy alone decides late events (the accounting check).
            self.provider = AnalyticsFeatureProvider(
                self.feature_store, window=4.0 * span,
                watermark_policy=self.policy, event_times=stream.event_times)
        start_s = 0.0
        if workload.asynchronous:
            self.runtime = ServingRuntime.for_model(self.model, RuntimeConfig(
                num_workers=workload.num_workers, max_backlog=MAX_BACKLOG,
                worker_nice=WORKER_NICE, store_dir=str(self.store_dir),
                telemetry=self.traced, trace_capacity=TRACE_CAPACITY))
            begin = clock()
            self.runtime.start(initial_watermark=float(stream.timestamps[0]))
            start_s = clock() - begin
        return start_s

    def _setup(self) -> tuple[float, float, float]:
        """Set up ``SETUP_REPEATS`` times; keep the last.  Medians in s."""
        self.store_dir.mkdir(parents=True, exist_ok=True)
        setup_s, start_s, close_s = [], [], []
        for repeat in range(SETUP_REPEATS):
            begin = clock()
            start_s.append(self._build())
            setup_s.append(clock() - begin)
            if repeat < SETUP_REPEATS - 1 and self.runtime is not None:
                begin = clock()
                self.runtime.close()
                close_s.append(clock() - begin)
        return (statistics.median(setup_s), statistics.median(start_s),
                statistics.median(close_s) if close_s else 0.0)

    # ------------------------------------------------------------------ #
    # Tracing: wrap each layer's public entry point (traced runs only)
    # ------------------------------------------------------------------ #
    def _install_tracer(self) -> list[str]:
        tracer, model = self.tracer, self.model

        def gather_counts(counts, args, result):
            counts["gather.unique"] += len(result.nodes)
            counts["gather.endpoints"] += len(result.inverse)

        def encode_counts(counts, args, result):
            counts["encode.nodes"] += len(result.data)

        def route_counts(counts, args, result):
            report = result[3]
            counts["route.generated"] += report.num_mails_generated
            counts["route.routed"] += report.num_mails_delivered
            counts["route.receivers"] += report.num_receivers

        def deliver_counts(counts, args, result):
            counts["deliver.mails"] += len(args[0])

        def sample_counts(counts, args, result):
            counts["sample.queries"] += result.mask.shape[0]
            counts["sample.slots"] += result.mask.size
            counts["sample.valid"] += int(result.mask.sum())

        targets = [
            (model, "compute_embeddings", "model.compute_embeddings", None),
            (model, "link_logits", "decoder.link_logits", None),
            (model, "apply_embedding_updates",
             "model.apply_embedding_updates", None),
            (model.mailbox, "gather_many", "mailbox.gather_many", gather_counts),
            (getattr(model, "encoder", None), "encode_many",
             "encoder.encode_many", encode_counts),
        ]
        if self.provider is not None:
            targets += [
                (self.provider, "lookup", "provider.lookup", None),
                (self.provider, "observe_scores", "provider.observe_scores", None),
                (self.provider, "advance", "provider.advance", None),
            ]
        if self.runtime is not None:
            targets += [
                (self.runtime, "staleness", "runtime.staleness", None),
                (self.runtime, "submit", "runtime.submit", None),
            ]
        else:
            targets += [
                (model.propagator, "route_and_reduce",
                 "propagator.route_and_reduce", route_counts),
                (model.mailbox, "deliver", "mailbox.deliver", deliver_counts),
                (model.propagator, "ingest_only", "propagator.ingest_only", None),
            ]
            try:
                from repro.graph import neighbor_sampler
                targets += [(cls, "sample_many", "sampler.sample_many",
                             sample_counts)
                            for cls in vars(neighbor_sampler).values()
                            if isinstance(cls, type)
                            and "sample_many" in vars(cls)]
            except ImportError:
                pass
        missing = []
        for owner, attribute, name, count in targets:
            if owner is None or not tracer.wrap(owner, attribute, name, count):
                missing.append(name)
        return missing

    # ------------------------------------------------------------------ #
    # The serving loop
    # ------------------------------------------------------------------ #
    def _batch(self, lo: int, hi: int) -> EventBatch:
        """Events ``[lo, hi)`` of the stream, as the program receives them."""
        stream = self.stream
        return EventBatch(
            src=stream.src[lo:hi], dst=stream.dst[lo:hi],
            timestamps=stream.timestamps[lo:hi],
            edge_features=stream.edge_features[lo:hi],
            labels=stream.labels[lo:hi],
            edge_ids=np.arange(lo, hi, dtype=np.int64))

    def _serve(self) -> dict:
        stream, n = self.stream, self.n
        model, runtime, provider = self.model, self.runtime, self.provider
        tracer = self.tracer
        timestamps = stream.timestamps
        propagator, mailbox = model.propagator, model.mailbox
        open_loop = self.workload.pacing == "open"
        if open_loop:
            span = float(timestamps[-1] - timestamps[0])
            due = (timestamps - timestamps[0]) * (self.seconds / span)

        scores = np.full(n, np.nan)
        latency = np.zeros(n)        # open loop: per event, seconds
        wait = np.zeros(n)           # open loop: due -> picked up
        batch_latency = []           # closed loop: per batch, seconds
        batch_first = []             # first event index of every batch
        staleness_ms = []
        self.replay_log = []         # (lo, hi, src_emb, dst_emb) per batch
        idle = 0.0
        backlog_full = 0

        began = clock()
        # Event 0 is due at `origin`; every time below is relative to it.
        origin = began + (OPEN_LOOP_LEAD_S if open_loop else 0.0)
        scorer_cpu, worker_cpu = self._cpu_seconds()
        i = 0
        with no_grad():
            while i < n:
                if open_loop:
                    now = clock() - origin
                    if due[i] > now:
                        time.sleep(due[i] - now)
                        picked = clock() - origin
                        idle += picked - now
                    else:
                        picked = now
                    j = min(i + BATCH_SIZE,
                            int(np.searchsorted(due, picked, side="right")))
                    j = max(j, i + 1)
                else:
                    picked = clock() - origin
                    j = min(i + BATCH_SIZE, n)
                if tracer is not None:
                    tracer.seq = len(batch_first)
                batch = self._batch(i, j)

                # --- the decision: everything before the score exists ----
                if runtime is not None:
                    staleness_ms.append(runtime.staleness().staleness_ms)
                if provider is not None:
                    provider.lookup(batch)
                embeddings = model.compute_embeddings(batch)
                logits = model.link_logits(embeddings.src, embeddings.dst)
                scored = clock() - origin
                scores[i:j] = logits.data.reshape(-1)

                # --- behind the decision ---------------------------------
                model.apply_embedding_updates(batch, embeddings)
                src_emb, dst_emb = embeddings.src.data, embeddings.dst.data
                if runtime is not None:
                    if tracer is not None:
                        backlog_full += \
                            runtime.staleness().backlog >= MAX_BACKLOG
                    runtime.submit(batch, src_emb, dst_emb)
                    self.replay_log.append((i, j, src_emb, dst_emb))
                else:
                    nodes, mails, times, _ = propagator.route_and_reduce(
                        batch, src_emb, dst_emb)
                    mailbox.deliver(nodes, mails, times)
                    propagator.ingest_only(batch)
                    scored = clock() - origin  # synchronous: state updated
                if provider is not None:
                    provider.observe_scores(batch, scores[i:j])
                    provider.advance(j)

                if open_loop:
                    latency[i:j] = scored - due[i:j]
                    wait[i:j] = picked - due[i:j]
                else:
                    batch_latency.append(scored - picked)
                batch_first.append(i)
                i = j
        served = clock() - began
        if runtime is not None:
            runtime.drain()
        drained = clock() - began
        scorer_cpu_end, worker_cpu_end = self._cpu_seconds()
        worker_cpu_s = worker_cpu_end - worker_cpu
        cpu_s = scorer_cpu_end - scorer_cpu + worker_cpu_s

        warm = int(WARMUP_SHARE * n)
        batch_first = np.asarray(batch_first)
        if open_loop:
            samples = latency[warm:] * 1000.0
            waits = wait[warm:] * 1000.0
        else:
            samples = np.asarray(batch_latency)[batch_first >= warm] * 1000.0
            waits = np.zeros(0)
        return {
            "origin": origin, "samples_ms": samples, "waits_ms": waits,
            "staleness_ms": np.asarray(staleness_ms), "scores": scores,
            "batches": len(batch_first), "idle_s": idle, "served_s": served,
            "drained_s": drained, "lead_s": origin - began, "cpu_s": cpu_s,
            "worker_cpu_s": worker_cpu_s, "backlog_full": backlog_full,
        }

    def _cpu_seconds(self) -> tuple[float, float]:
        """user+sys CPU so far of the scorer and of all its workers."""
        pids = self.runtime.worker_pids() if self.runtime is not None else []
        return time.process_time(), sum(_cpu_seconds(pid) for pid in pids)

    # ------------------------------------------------------------------ #
    # Correctness gates
    # ------------------------------------------------------------------ #
    def _replay(self) -> tuple[bool, dict]:
        """Sequential propagation of the logged batches on a fresh model.

        The runtime's final mailbox must be bit-equal to it: maintained
        state equals recomputation after the whole update sequence.
        """
        stream = self.stream
        fresh = APAN(self.num_nodes, stream.edge_feature_dim, self.config)
        counts = {"generated": 0, "routed": 0, "receivers": 0}
        for lo, hi, src_emb, dst_emb in self.replay_log:
            report = fresh.propagator.propagate(self._batch(lo, hi),
                                                src_emb, dst_emb)
            counts["generated"] += report.num_mails_generated
            counts["routed"] += report.num_mails_delivered
            counts["receivers"] += report.num_receivers
        served, replayed = self.model.mailbox, fresh.mailbox
        equal = (np.array_equal(served.mails, replayed.mails)
                 and np.array_equal(served.mail_times, replayed.mail_times)
                 and np.array_equal(served.valid, replayed.valid))
        return equal, counts

    def _fingerprint(self) -> str:
        digest = hashlib.sha256()
        mailbox = self.model.mailbox
        for array in (mailbox.mails, mailbox.mail_times, mailbox.valid,
                      self.model.node_state):
            digest.update(np.ascontiguousarray(array).tobytes())
        return digest.hexdigest()

    def _expected_late(self) -> tuple[int, int]:
        lateness = self.stream.lateness()
        admitted = self.policy.admit_mask(lateness)
        return (int((admitted & (lateness > 0)).sum()),
                int((~admitted).sum()))

    # ------------------------------------------------------------------ #
    def execute(self) -> dict:
        workload, n = self.workload, self.n
        shm_before = set(os.listdir("/dev/shm"))
        runtime_stats = {"backlog_after_drain": 0, "max_backlog_seen": 0,
                         "mean_delivery_lag_ms": 0.0}
        program_events: list = []
        missing_layers: list[str] = []
        try:
            setup_s, start_s, close_s = self._setup()
            if self.traced:
                missing_layers = self._install_tracer()
            try:
                served = self._serve()
            finally:
                if self.traced:
                    self.tracer.uninstall()
            runtime = self.runtime
            pids = [os.getpid()] + (runtime.worker_pids() if runtime else [])
            peak_rss_mb = sum(_peak_rss_mb(pid) for pid in pids)
            if runtime is not None:
                runtime_stats = {
                    "backlog_after_drain": runtime.staleness().backlog,
                    "max_backlog_seen": runtime.max_backlog_seen,
                    "mean_delivery_lag_ms": runtime.mean_delivery_lag_ms()}
                begin = clock()
                runtime.close()
                close_s = clock() - begin
                program_events = runtime.telemetry.chrome_events()
        finally:
            if self.runtime is not None:
                self.runtime.close(drain=False)
            left = sorted(path.name for path in self.store_dir.glob("*"))
            shutil.rmtree(self.store_dir, ignore_errors=True)
        left += sorted(set(os.listdir("/dev/shm")) - shm_before)

        # --- correctness ------------------------------------------------
        scores = served["scores"]
        wall_s = served["drained_s"] - served["lead_s"]  # first batch -> drained
        events_per_s = n / wall_s
        checks = {"every_event_scored": bool(np.isfinite(scores).all()),
                  "no_shm_segment_or_store_dir_left": not left}
        route = {"generated": 0, "routed": 0, "receivers": 0}
        if workload.asynchronous:
            checks["submitted_equals_delivered"] = \
                runtime_stats["backlog_after_drain"] == 0
            checks["replay_bit_equal"], route = self._replay()
        late = {"late_admitted": 0, "late_dropped": 0, "rows_folded": 0}
        if self.provider is not None:
            accounting = self.provider.late_accounting()
            late = {"late_admitted": int(accounting["late_admitted"]),
                    "late_dropped": int(accounting["late_dropped"]),
                    "rows_folded": int(self.provider.folded)}
            checks["late_accounting_as_predicted"] = \
                (late["late_admitted"], late["late_dropped"]) \
                == self._expected_late() and late["rows_folded"] == n

        # --- metrics ----------------------------------------------------
        samples = served["samples_ms"]
        batches = served["batches"]
        stale = served["staleness_ms"]
        end_to_end = {
            "decision_p50_ms": _percentile(samples, 50),
            "events_per_s": events_per_s,
            "cpu_s_per_kevent": served["cpu_s"] / (n / 1000.0),
            "peak_rss_mb": peak_rss_mb,
            "setup_s": setup_s,
        }
        # Per-layer metrics that need no span: every run records them.
        not_gated = {
            "driver.decision_p95_ms": _percentile(samples, 95),
            "driver.decision_p99_ms": _percentile(samples, 99),
            "driver.decision_p999_ms": _percentile(samples, 99.9),
            "driver.samples": len(samples),
            "driver.slo_miss_share": float((samples > DECISION_SLO_MS).mean()),
            "driver.ingress_wait_p50_ms": _percentile(served["waits_ms"], 50),
            "driver.ingress_wait_p95_ms": _percentile(served["waits_ms"], 95),
            "driver.batch_size_mean": n / batches,
            "driver.batches": batches,
            "driver.idle_share": served["idle_s"] / served["served_s"],
            "serving.runtime.staleness_p50_ms": _percentile(stale, 50),
            "serving.runtime.staleness_p95_ms": _percentile(stale, 95),
            "serving.runtime.max_backlog_seen":
                runtime_stats["max_backlog_seen"],
            "serving.runtime.mean_delivery_lag_ms":
                runtime_stats["mean_delivery_lag_ms"],
            "serving.runtime.drain_ms":
                (served["drained_s"] - served["served_s"]) * 1000.0,
            "serving.runtime.start_ms": start_s * 1000.0,
            "serving.runtime.close_ms": close_s * 1000.0,
            "analytics.provider.rows_folded": late["rows_folded"],
            "analytics.provider.late_admitted": late["late_admitted"],
            "analytics.provider.late_dropped": late["late_dropped"],
        }
        if workload.asynchronous:  # counted by the bit-equal replay
            not_gated.update({
                "core.propagator.fanout": route["routed"] / route["generated"],
                "core.propagator.reduce_ratio":
                    route["receivers"] / route["routed"],
                "core.mailbox.mails_delivered": route["receivers"],
            })
        record = {
            "workload": workload.name, "seed": self.seed,
            "seconds": self.seconds, "traced": self.traced,
            "pacing": workload.pacing, "workers": workload.num_workers,
            "events": n, "nodes": self.num_nodes,
            "sent": n, "scored": int(np.isfinite(scores).sum()),
            "checks": checks, "left_behind": left,
            # Open loop: served rate within 2% of offered, i.e. no backlog
            # left growing.  Speed, not correctness, so it fails no event.
            "kept_up_with_offered_rate":
                workload.pacing != "open"
                or abs(events_per_s * self.seconds / n - 1.0) <= 0.02,
            "state_fingerprint":
                None if workload.asynchronous else self._fingerprint(),
            "wall_s": wall_s, "scorer_wall_s": served["served_s"],
            "cpu_s": served["cpu_s"], "worker_cpu_s": served["worker_cpu_s"],
            "end_to_end": end_to_end, "not_gated": not_gated,
            "missing_layers": missing_layers,
        }
        if self.traced:
            record["per_layer"] = self._per_layer(
                served, not_gated, program_events)
            self._write_trace(served["origin"], program_events, record)
        return record

    # ------------------------------------------------------------------ #
    # Per-layer table (traced runs)
    # ------------------------------------------------------------------ #
    def _per_layer(self, served: dict, not_gated: dict,
                   program_events: list) -> dict:
        tracer, batches = self.tracer, served["batches"]
        totals = tracer.totals()
        counts = tracer.counts

        def per_batch_ms(name: str, self_time: bool = False) -> float:
            entry = totals.get(name)
            return 1000.0 * entry[2 if self_time else 1] / batches \
                if entry else 0.0

        def ratio(top: float, bottom: float) -> float:
            return top / bottom if bottom else 0.0

        program: dict[str, list] = {}
        dropped = 0
        for event in program_events:
            if event.get("ph") == "X":
                program.setdefault(event["name"], []).append(
                    event["dur"] / 1000.0)
            elif event["name"] == "trace_ring_dropped":
                dropped += event["args"]["dropped_records"]

        def program_ms(name: str) -> float:
            return sum(program.get(name, ())) / batches

        asynchronous = self.workload.asynchronous
        append_ms = program_ms("store.append")
        submit_ms = per_batch_ms("runtime.submit")
        worker_cpu_ms = 1000.0 * served["worker_cpu_s"] / batches
        scorer_wall = served["served_s"]
        values = dict(not_gated)
        values.update({
            "analytics.provider.lookup_ms": per_batch_ms("provider.lookup"),
            "analytics.provider.observe_scores_ms":
                per_batch_ms("provider.observe_scores"),
            "analytics.provider.advance_ms": per_batch_ms("provider.advance"),
            "core.model.compute_embeddings_self_ms":
                per_batch_ms("model.compute_embeddings", self_time=True),
            "core.model.apply_embedding_updates_ms":
                per_batch_ms("model.apply_embedding_updates"),
            "core.mailbox.gather_many_ms": per_batch_ms("mailbox.gather_many"),
            "core.mailbox.gather_unique_share":
                ratio(counts["gather.unique"], counts["gather.endpoints"]),
            "core.mailbox.deliver_ms": per_batch_ms("mailbox.deliver"),
            "core.encoder.encode_many_ms": per_batch_ms("encoder.encode_many"),
            "core.encoder.nodes_encoded": counts["encode.nodes"],
            "core.encoder.us_per_node": ratio(
                1e6 * totals["encoder.encode_many"][1]
                if "encoder.encode_many" in totals else 0.0,
                counts["encode.nodes"]),
            "core.decoder.link_logits_ms": per_batch_ms("decoder.link_logits"),
            "core.propagator.route_and_reduce_ms":
                program_ms("worker.propagate") if asynchronous
                else per_batch_ms("propagator.route_and_reduce"),
            "core.propagator.route_self_ms":
                per_batch_ms("propagator.route_and_reduce", self_time=True),
            "core.propagator.ingest_ms": per_batch_ms("propagator.ingest_only"),
            "graph.neighbor_sampler.sample_many_ms":
                per_batch_ms("sampler.sample_many"),
            "graph.neighbor_sampler.queries": counts["sample.queries"],
            "graph.neighbor_sampler.valid_share":
                ratio(counts["sample.valid"], counts["sample.slots"]),
            "storage.event_store.append_ms": append_ms,
            "storage.event_store.refresh_ms": program_ms("store.refresh"),
            "storage.event_store.refreshes": len(program.get("store.refresh", ())),
            "serving.runtime.submit_ms": submit_ms,
            "serving.runtime.submit_self_ms": submit_ms - append_ms,
            "serving.runtime.backlog_full_share":
                served["backlog_full"] / batches,
            "serving.runtime.queue_ride_p50_ms":
                _percentile(program.get("queue.ride", ()), 50),
            "serving.runtime.queue_ride_p95_ms":
                _percentile(program.get("queue.ride", ()), 95),
            "serving.runtime.worker_apply_ms": program_ms("worker.apply"),
            "serving.runtime.worker_cpu_ms_per_batch": worker_cpu_ms,
            "serving.runtime.worker_unspanned_ms_per_batch":
                worker_cpu_ms - program_ms("worker.propagate")
                - program_ms("worker.apply") - program_ms("store.refresh")
                if asynchronous else 0.0,
            "driver.unaccounted_share":
                (scorer_wall - served["idle_s"] - tracer.top_level_seconds())
                / scorer_wall,
            "obs.spans_dropped": dropped,
            "obs.traced_over_untraced_cpu": 0.0,  # filled in by the caller
        })
        if not asynchronous:
            values.update({
                "core.propagator.fanout":
                    ratio(counts["route.routed"], counts["route.generated"]),
                "core.propagator.reduce_ratio":
                    ratio(counts["route.receivers"], counts["route.routed"]),
                "core.mailbox.mails_delivered": counts["deliver.mails"],
            })
        return values

    def _write_trace(self, origin: float, program_events: list,
                     record: dict) -> None:
        """Bench spans and the program's own spans on one timeline."""
        pid = os.getpid()
        events = self.tracer.chrome_events(pid, origin)
        ours = [e["ts"] for e in events if e["name"] == "runtime.submit"]
        theirs = [e["ts"] for e in program_events
                  if e.get("ph") == "X" and e["name"] == "scorer.submit"]
        # The program stamps against its own epoch; one submit per batch on
        # both sides gives the shift onto the benchmark's timeline.
        shift = statistics.median(a - b for a, b in zip(ours, theirs)) \
            if ours and theirs else 0.0
        for event in program_events:
            if "ts" in event:
                event = dict(event, ts=event["ts"] + shift)
            events.append(event)
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        write_chrome_trace(
            OUT_DIR / f"trace_{self.workload.name}.json", events,
            {key: record[key] for key in
             ("workload", "seed", "seconds", "events", "workers")})


def run(workload: Workload, seed: int, seconds: float, traced: bool) -> dict:
    return Run(workload, seed, seconds, traced).execute()
