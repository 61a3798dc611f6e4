"""Cached scenario-matrix harness: every model x every hostile stream.

The generators in :mod:`repro.scenarios.generators` each stress one failure
mode; this module runs the *cross product* — each registered model served
over each hostile scenario in each serving mode — and collects the serving
metrics (measured decision latency percentiles, backlog, staleness,
late-event accounting under the active
:class:`~repro.analytics.WatermarkPolicy`) into one machine-readable record.  ``benchmarks/test_scenario_matrix.py`` writes
it out as ``BENCH_scenarios.json`` with :mod:`repro.obs` provenance.

Cells are **cached**: each (scenario spec, model, mode, batch size, policy)
combination hashes to a stable key, and a completed cell's metrics are
stored as one JSON file under ``cache_dir``.  Re-running the matrix after
adding a scenario or model re-runs only the new cells — the harness
pattern for expensive batch evaluation where most of the grid is already
known.  The cache key includes the scenario's
:meth:`~repro.scenarios.spec.ScenarioSpec.fingerprint`, so regenerating a
stream with different parameters (or a different seed) never aliases a
stale cell.

The models are served **untrained** with fixed seeds: the matrix measures
serving behaviour under hostile load (latency, backlog, watermark
accounting), not predictive accuracy, and untrained-but-seeded models make
every cell reproducible without a training phase in CI.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from ..analytics import AnalyticsFeatureProvider, WatermarkPolicy
from ..obs import run_metadata
from ..serving import ServingLoop
from .generators import bursty_arrivals, concept_drift, hub_nodes, late_events

__all__ = [
    "SCENARIO_GENERATORS",
    "MATRIX_SCENARIOS",
    "DEFAULT_MATRIX_MODES",
    "default_model_zoo",
    "ScenarioMatrix",
]

# Bump when cell semantics change: invalidates every cached cell at once.
_CACHE_VERSION = 2

SCENARIO_GENERATORS = {
    "bursty": bursty_arrivals,
    "hubs": hub_nodes,
    "drift": concept_drift,
    "late": late_events,
}

# CI-scale parameterisations: small enough that the full default matrix
# (4 scenarios x 3 models x 1 mode = 12 cells) runs in well under a
# minute cold, while still exercising each scenario's hostile shape.
MATRIX_SCENARIOS = {
    "bursty": dict(num_events=600, num_nodes=120, peak_mean_ratio=6.0,
                   num_bursts=3, num_buckets=64, seed=7),
    "hubs": dict(num_events=600, num_nodes=150, num_hubs=2, seed=7),
    "drift": dict(num_events=600, num_nodes=120, seed=7),
    "late": dict(num_events=600, num_nodes=120, late_fraction=0.3, seed=7),
}

# The worker pool needs a model with an APAN-style mailbox; the default
# matrix sticks to the one mode every TemporalEmbeddingModel supports.
DEFAULT_MATRIX_MODES = ("inline",)


def default_model_zoo() -> dict:
    """APAN vs two baselines, as ``dataset -> model`` factories.

    Each factory builds a fresh, seeded, untrained model so cells never
    share streaming state.  Imported lazily so this module stays cheap to
    import when only the generators are needed.
    """
    from ..baselines import JODIE, TGN
    from ..core import APAN, APANConfig

    def apan(dataset):
        return APAN(dataset.num_nodes, dataset.edge_feature_dim,
                    APANConfig(num_mailbox_slots=8, num_neighbors=8,
                               num_hops=1, seed=0))

    def jodie(dataset):
        return JODIE(dataset.num_nodes, dataset.edge_feature_dim, seed=0)

    def tgn(dataset):
        return TGN(dataset.num_nodes, dataset.edge_feature_dim,
                   num_layers=1, num_neighbors=8, seed=0)

    return {"APAN": apan, "JODIE": jodie, "TGN": tgn}


class ScenarioMatrix:
    """Runs models x scenarios x serving modes with per-cell result caching.

    Parameters
    ----------
    scenarios:
        ``{name: generator_kwargs}`` over :data:`SCENARIO_GENERATORS` keys
        (default: :data:`MATRIX_SCENARIOS`).
    models:
        ``{name: dataset -> model}`` factories (default:
        :func:`default_model_zoo`).
    modes:
        Serving modes per cell (default: :data:`DEFAULT_MATRIX_MODES`).
        ``"worker-pool"`` requires models the multi-process runtime
        supports (APAN-style mailbox models) and takes ``runtime_config``.
    policy:
        The :class:`~repro.analytics.WatermarkPolicy` installed on every
        cell's feature provider (default: admit-all).
    cache_dir:
        Directory for per-cell JSON results; ``None`` disables caching.
    """

    def __init__(self, scenarios=None, models=None,
                 modes=DEFAULT_MATRIX_MODES,
                 policy: WatermarkPolicy | None = None,
                 batch_size: int = 50, max_batches: int | None = None,
                 cache_dir: str | Path | None = None,
                 runtime_config=None):
        self.scenarios = dict(scenarios if scenarios is not None
                              else MATRIX_SCENARIOS)
        unknown = sorted(set(self.scenarios) - set(SCENARIO_GENERATORS))
        if unknown:
            raise KeyError(f"unknown scenarios {unknown}; "
                           f"available: {sorted(SCENARIO_GENERATORS)}")
        self.model_factories = dict(models) if models is not None \
            else default_model_zoo()
        self.modes = tuple(modes)
        self.policy = policy if policy is not None else WatermarkPolicy.admit()
        self.batch_size = int(batch_size)
        self.max_batches = max_batches
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        self.runtime_config = runtime_config

    # ------------------------------------------------------------------ #
    # Cache
    # ------------------------------------------------------------------ #
    def cell_key(self, spec, model_name: str, mode: str) -> str:
        """Stable cache key of one cell: spec fingerprint + run knobs."""
        payload = {
            "version": _CACHE_VERSION,
            "fingerprint": spec.fingerprint(),
            "model": model_name,
            "mode": mode,
            "batch_size": self.batch_size,
            "max_batches": self.max_batches,
            "policy": str(self.policy),
        }
        blob = json.dumps(payload, sort_keys=True).encode("utf-8")
        return hashlib.sha256(blob).hexdigest()[:20]

    def _cache_path(self, key: str) -> Path | None:
        if self.cache_dir is None:
            return None
        return self.cache_dir / f"cell_{key}.json"

    def _cache_load(self, key: str) -> dict | None:
        path = self._cache_path(key)
        if path is None or not path.exists():
            return None
        try:
            return json.loads(path.read_text())
        except (OSError, ValueError):
            return None  # corrupt/partial cell: recompute

    def _cache_store(self, key: str, cell: dict) -> None:
        path = self._cache_path(key)
        if path is None:
            return
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(cell, indent=2) + "\n")
        tmp.replace(path)  # atomic publish: a reader never sees half a cell

    # ------------------------------------------------------------------ #
    # Cells
    # ------------------------------------------------------------------ #
    def _run_cell(self, dataset, spec, model_name: str, mode: str) -> dict:
        graph = dataset.to_temporal_graph()
        model = self.model_factories[model_name](dataset)
        # Window spans the whole stream so the ring horizon never rejects:
        # every drop in the cell's accounting is a *policy* decision.
        provider = AnalyticsFeatureProvider(
            graph, window=float(spec["timespan"]), num_buckets=16,
            watermark_policy=self.policy, event_times=dataset.event_times)
        loop = ServingLoop(model, graph, batch_size=self.batch_size,
                           feature_provider=provider)
        report = loop.run(max_batches=self.max_batches, mode=mode,
                          runtime_config=self.runtime_config)
        cell = report.as_dict()
        cell["rows_folded"] = int(provider.folded)
        return cell

    def run(self) -> dict:
        """Run (or load from cache) every cell; returns the matrix record.

        The record carries each scenario's declared
        :class:`~repro.scenarios.spec.ScenarioSpec`, every cell's serving
        metrics keyed ``"scenario/model/mode"``, and a ``coverage`` block
        (cell counts + any missing combinations) the benchmark guard
        asserts on.
        """
        specs: dict[str, dict] = {}
        cells: dict[str, dict] = {}
        cache_hits = 0
        for scenario_name, kwargs in self.scenarios.items():
            generator = SCENARIO_GENERATORS[scenario_name]
            dataset, spec = generator(**kwargs)
            specs[scenario_name] = spec.as_dict()
            for model_name in self.model_factories:
                for mode in self.modes:
                    key = self.cell_key(spec, model_name, mode)
                    cell = self._cache_load(key)
                    if cell is not None:
                        cache_hits += 1
                        cell["cached"] = True
                    else:
                        cell = self._run_cell(dataset, spec, model_name, mode)
                        cell["cached"] = False
                        self._cache_store(key, cell)
                    cell.update({"scenario": scenario_name,
                                 "model": model_name, "mode": mode,
                                 "cache_key": key})
                    cells[f"{scenario_name}/{model_name}/{mode}"] = cell
        expected = [f"{s}/{m}/{mode}" for s in self.scenarios
                    for m in self.model_factories for mode in self.modes]
        missing = sorted(set(expected) - set(cells))
        return {
            "scenarios": specs,
            "models": sorted(self.model_factories),
            "modes": list(self.modes),
            "watermark_policy": str(self.policy),
            "batch_size": self.batch_size,
            "max_batches": self.max_batches,
            "cells": cells,
            "coverage": {
                "num_scenarios": len(self.scenarios),
                "num_models": len(self.model_factories),
                "num_modes": len(self.modes),
                "num_cells": len(cells),
                "cache_hits": cache_hits,
                "missing": missing,
            },
        }

    def write_report(self, path: str | Path) -> Path:
        """Run the matrix and write the record with :mod:`repro.obs` provenance."""
        record = self.run()
        record["provenance"] = run_metadata()
        path = Path(path)
        path.write_text(json.dumps(record, indent=2) + "\n")
        return path
