"""Online serving: the measured decision loop and the multi-process runtime."""

from .runtime import (
    PropagatorSpec,
    RuntimeConfig,
    RuntimeTelemetrySnapshot,
    ServingRuntime,
    StalenessSnapshot,
    serving_telemetry_spec,
)
from .service import (
    SERVING_MODES,
    FeatureProvider,
    ServingLoop,
    ServingReport,
)

__all__ = [
    "FeatureProvider",
    "PropagatorSpec",
    "RuntimeConfig",
    "RuntimeTelemetrySnapshot",
    "ServingRuntime",
    "StalenessSnapshot",
    "serving_telemetry_spec",
    "ServingLoop",
    "ServingReport",
    "SERVING_MODES",
]
