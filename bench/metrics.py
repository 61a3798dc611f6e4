"""Every metric the benchmark prints: name, unit, direction, regression bound.

This table is the single source for the names; ``BENCHMARK.json`` at the
repository root lists the same entries (``bench/test_smoke.py`` checks the
two agree).  End-to-end metrics are measured with tracing off and are gated:
``bound`` is the share of the parent's median by which the metric may get
worse.  Per-layer metrics come from the separate traced run and are never
gated.  A per-layer metric that does not apply to a workload (no feature
provider, no worker pool, closed loop) is printed as 0.
"""

from __future__ import annotations

from dataclasses import dataclass

DECISION_SLO_MS = 50.0
RUN_SECONDS = 15  # BENCHMARK.json run_seconds; `python -m bench` default


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "lower" | "higher"
    bound: float | None = None  # end-to-end only

    def as_json(self) -> dict:
        entry = {"name": self.name, "unit": self.unit, "better": self.better}
        if self.bound is not None:
            entry["bound"] = self.bound
        return entry


END_TO_END = (
    Metric("decision_p50_ms", "ms", "lower", 0.25),
    Metric("events_per_s", "1/s", "higher", 0.25),
    Metric("cpu_s_per_kevent", "s/kevent", "lower", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.15),
    Metric("setup_s", "s", "lower", 0.25),
)


def _layer(layer: str, *entries: tuple) -> tuple:
    return tuple(Metric(f"{layer}.{name}", unit, better)
                 for name, unit, better in entries)


PER_LAYER = (
    *_layer("analytics.provider",
            ("lookup_ms", "ms", "lower"),
            ("observe_scores_ms", "ms", "lower"),
            ("advance_ms", "ms", "lower"),
            ("rows_folded", "count", "higher"),
            ("late_admitted", "count", "higher"),
            ("late_dropped", "count", "lower")),
    *_layer("core.model",
            ("compute_embeddings_self_ms", "ms", "lower"),
            ("apply_embedding_updates_ms", "ms", "lower")),
    *_layer("core.mailbox",
            ("gather_many_ms", "ms", "lower"),
            ("gather_unique_share", "share", "lower"),
            ("deliver_ms", "ms", "lower"),
            ("mails_delivered", "count", "higher")),
    *_layer("core.encoder",
            ("encode_many_ms", "ms", "lower"),
            ("nodes_encoded", "count", "lower"),
            ("us_per_node", "us", "lower")),
    *_layer("core.decoder",
            ("link_logits_ms", "ms", "lower")),
    *_layer("core.propagator",
            ("route_and_reduce_ms", "ms", "lower"),
            ("route_self_ms", "ms", "lower"),
            ("ingest_ms", "ms", "lower"),
            ("fanout", "ratio", "higher"),
            ("reduce_ratio", "ratio", "lower")),
    *_layer("graph.neighbor_sampler",
            ("sample_many_ms", "ms", "lower"),
            ("queries", "count", "lower"),
            ("valid_share", "share", "higher")),
    *_layer("storage.event_store",
            ("append_ms", "ms", "lower"),
            ("refresh_ms", "ms", "lower"),
            ("refreshes", "count", "lower")),
    *_layer("serving.runtime",
            ("submit_ms", "ms", "lower"),
            ("submit_self_ms", "ms", "lower"),
            ("backlog_full_share", "share", "lower"),
            ("queue_ride_p50_ms", "ms", "lower"),
            ("queue_ride_p95_ms", "ms", "lower"),
            ("worker_apply_ms", "ms", "lower"),
            ("worker_cpu_ms_per_batch", "ms", "lower"),
            ("worker_unspanned_ms_per_batch", "ms", "lower"),
            ("max_backlog_seen", "count", "lower"),
            ("mean_delivery_lag_ms", "ms", "lower"),
            ("staleness_p50_ms", "ms", "lower"),
            ("staleness_p95_ms", "ms", "lower"),
            ("drain_ms", "ms", "lower"),
            ("start_ms", "ms", "lower"),
            ("close_ms", "ms", "lower")),
    *_layer("driver",
            ("ingress_wait_p50_ms", "ms", "lower"),
            ("ingress_wait_p95_ms", "ms", "lower"),
            ("batch_size_mean", "count", "lower"),
            ("batches", "count", "lower"),
            ("idle_share", "share", "higher"),
            ("decision_p95_ms", "ms", "lower"),
            ("decision_p99_ms", "ms", "lower"),
            ("decision_p999_ms", "ms", "lower"),
            ("samples", "count", "higher"),
            ("slo_miss_share", "share", "lower"),
            ("unaccounted_share", "share", "lower")),
    *_layer("obs",
            ("traced_over_untraced_cpu", "ratio", "lower"),
            ("spans_dropped", "count", "lower")),
)


def render(metrics: tuple, values: dict) -> dict:
    """The ``metrics`` object of a result line: ``{name: {value, unit}}``."""
    return {metric.name: {"value": float(values[metric.name]),
                          "unit": metric.unit}
            for metric in metrics}
