"""Cross-process observability: shared-memory metrics, span tracing, summaries.

This package is the self-observability substrate of the serving pipeline
(Cambridge-report style "built-in telemetry"): counters / gauges / histograms
that propagation workers publish through fixed-layout
``multiprocessing.shared_memory`` segments (``obs._shm.SharedArrayBundle``,
which the shared mailbox is built on too), span tracing with
per-process ring buffers, and a Chrome trace-event JSON exporter
(``make trace`` → load in ``chrome://tracing`` / Perfetto).

Layering: ``repro.obs`` depends only on NumPy and the standard library, so
every other subsystem (storage, serving, eval, benchmarks) can report through
it without import cycles.  The default sink is :data:`NULL_TELEMETRY`, a
no-op :class:`NullTelemetry` whose spans cost roughly one attribute access —
instrumented hot paths pay ~nothing unless telemetry is switched on.
"""

from .metrics import DEFAULT_HIST_BOUNDS, MetricsSpec, SharedMetrics
from .provenance import run_metadata
from .summary import HistogramSummary, percentiles, summarize
from .telemetry import (
    NULL_TELEMETRY,
    NullTelemetry,
    Telemetry,
    TelemetryHandle,
    TelemetrySpec,
)
from .trace import TraceRing, write_chrome_trace

__all__ = [
    "HistogramSummary",
    "percentiles",
    "summarize",
    "MetricsSpec",
    "SharedMetrics",
    "DEFAULT_HIST_BOUNDS",
    "TraceRing",
    "write_chrome_trace",
    "Telemetry",
    "TelemetryHandle",
    "TelemetrySpec",
    "NullTelemetry",
    "NULL_TELEMETRY",
    "run_metadata",
]
