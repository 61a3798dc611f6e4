"""Scenario-matrix benchmark: every model over every hostile stream.

Runs the :class:`repro.scenarios.ScenarioMatrix` — APAN vs the JODIE and TGN
baselines across the four adversarial scenarios (``bursty``, ``hubs``,
``drift``, ``late``) served ``inline`` (the one mode every model supports,
decision latency measured), under a ``fold-late`` watermark policy — and
writes the full record to ``BENCH_scenarios.json`` under ``benchmarks/out/``
with :mod:`repro.obs` provenance (see ``make bench-scenarios``).

The guard asserts the matrix is *complete*: at least 4 scenarios x 3 models
x ``inline`` with no missing cells, every cell accounted (decisions served,
rows folded), and the late-event accounting consistent with the declared
scenario specs.
Per-cell results are cached under ``SCENARIO_BENCH_CACHE`` (keyed by
scenario fingerprint + model + mode + policy), so local re-runs only pay
for new cells; CI runs cold.  ``SCENARIO_BENCH_EVENTS`` scales the streams
(default 600 events per scenario — the CI size).
"""

from __future__ import annotations

import json
import os

import pytest

from repro.analytics import WatermarkPolicy
from repro.scenarios import MATRIX_SCENARIOS, ScenarioMatrix

from .harness import OUT_DIR, write_bench_record

NUM_EVENTS = int(os.environ.get("SCENARIO_BENCH_EVENTS", "600"))
BATCH_SIZE = 50
ALLOWED_LATENESS = 6000.0  # stream seconds; covers the late scenario's bound

_RESULT_PATH = OUT_DIR / "BENCH_scenarios.json"


def _scenarios() -> dict:
    scenarios = {}
    for name, kwargs in MATRIX_SCENARIOS.items():
        kwargs = dict(kwargs)
        scale = NUM_EVENTS / kwargs["num_events"]
        kwargs["num_events"] = NUM_EVENTS
        kwargs["num_nodes"] = max(40, int(round(kwargs["num_nodes"] * scale)))
        scenarios[name] = kwargs
    return scenarios


@pytest.fixture(scope="module")
def record():
    cache_dir = os.environ.get("SCENARIO_BENCH_CACHE")
    matrix = ScenarioMatrix(
        scenarios=_scenarios(),
        policy=WatermarkPolicy.fold_late(ALLOWED_LATENESS),
        batch_size=BATCH_SIZE,
        cache_dir=cache_dir,
    )
    out = matrix.run()
    path = write_bench_record(_RESULT_PATH, out)
    # Assert on what was actually written (provenance stamped on write).
    return json.loads(path.read_text())


def test_matrix_is_complete(record):
    coverage = record["coverage"]
    assert coverage["num_scenarios"] >= 4, "matrix must cover >= 4 scenarios"
    assert coverage["num_models"] >= 3, "matrix must compare >= 3 models"
    assert record["modes"] == ["inline"], "matrix serves every model inline"
    assert coverage["missing"] == [], (
        f"matrix has holes: {coverage['missing']}")
    assert coverage["num_cells"] == (coverage["num_scenarios"]
                                     * coverage["num_models"]
                                     * coverage["num_modes"])
    assert "APAN" in record["models"]
    assert record["provenance"]["git_sha"]


def test_every_cell_served_the_whole_stream(record):
    for key, cell in record["cells"].items():
        assert cell["num_decisions"] == NUM_EVENTS, key
        assert cell["rows_folded"] == NUM_EVENTS, key
        assert cell["mean_decision_ms"] > 0.0, key
        assert cell["watermark_policy"] == record["watermark_policy"], key


def test_late_accounting_matches_declared_specs(record):
    specs = record["scenarios"]
    # In-order scenarios never produce late events; the late scenario's
    # realised count is declared in its spec, and fold-late admits all of
    # them because the allowance covers the declared bound.
    assert specs["late"]["invariants"]["max_lateness"] <= ALLOWED_LATENESS
    for key, cell in record["cells"].items():
        expected = (specs["late"]["invariants"]["num_late"]
                    if cell["scenario"] == "late" else 0)
        assert cell["late_admitted"] == expected, key
        assert cell["late_dropped"] == 0, key


def test_matrix_caches_cells(record, tmp_path):
    matrix = ScenarioMatrix(
        scenarios={"late": _scenarios()["late"]},
        policy=WatermarkPolicy.fold_late(ALLOWED_LATENESS),
        batch_size=BATCH_SIZE, cache_dir=tmp_path,
    )
    cold = matrix.run()
    assert cold["coverage"]["cache_hits"] == 0
    warm = matrix.run()
    assert warm["coverage"]["cache_hits"] == warm["coverage"]["num_cells"]
    for key, cell in warm["cells"].items():
        assert cell["cached"], key
        fresh = {k: v for k, v in cold["cells"][key].items() if k != "cached"}
        reloaded = {k: v for k, v in cell.items() if k != "cached"}
        assert fresh == reloaded, key
    # A different policy must miss the cache: the key covers the policy.
    other = ScenarioMatrix(
        scenarios={"late": _scenarios()["late"]},
        policy=WatermarkPolicy.drop(),
        batch_size=BATCH_SIZE, cache_dir=tmp_path,
    ).run()
    assert other["coverage"]["cache_hits"] == 0
