"""Smoke test of the benchmark itself: ``python -m pytest bench -q``.

Outside ``testpaths``, so tier-1 never runs it.  It runs the 2-second version
of every workload through the real command line and checks that every metric
named in ``BENCHMARK.json`` comes out with its unit, that the correctness
gates ran and passed, that the seed decides the stream, and that the run
leaves the working tree as it found it and no process behind.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from bench import OUT_DIR, ROOT
from bench.metrics import END_TO_END, PER_LAYER, RUN_SECONDS
from bench.supervise import become_subreaper
from bench.workloads import WORKLOADS


def _bench(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-m", "bench", *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=900)


def _git_status() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT,
                          capture_output=True, text=True)
    return done.stdout if done.returncode == 0 else None


@pytest.fixture(scope="module")
def quick_run():
    before = _git_status()
    out = OUT_DIR / "smoke_result.json"
    done = _bench("--quick", "--out", str(out))
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    with open(out) as handle:
        return json.load(handle), done.stdout, before


def test_benchmark_json_lists_the_same_metrics_and_workloads():
    with open(ROOT / "BENCHMARK.json") as handle:
        declared = json.load(handle)
    assert declared["end_to_end"] == [m.as_json() for m in END_TO_END]
    assert declared["per_layer"] == [m.as_json() for m in PER_LAYER]
    assert declared["workloads"] == [{"name": w.name, "why": w.why}
                                     for w in WORKLOADS]
    assert declared["paths"] == ["bench"]
    assert declared["command"] == ["python3", "-m", "bench"]
    assert declared["run_seconds"] == RUN_SECONDS


def test_quick_run_emits_every_metric_and_passes_every_gate(quick_run):
    result, stdout, _ = quick_run
    assert list(result["workloads"]) == [w.name for w in WORKLOADS]
    for workload in WORKLOADS:
        entry = result["workloads"][workload.name]
        assert set(entry["end_to_end"]) == {m.name for m in END_TO_END}
        assert set(entry["per_layer"]) == {m.name for m in PER_LAYER}
        for side in ("untraced", "traced"):
            run = entry[side]
            assert run["checks"] and all(run["checks"].values()), run["checks"]
            assert run["failed"] == 0 and run["sent"] == run["scored"]
        if workload.asynchronous:
            assert entry["untraced"]["checks"]["replay_bit_equal"]
        else:
            assert entry["untraced"]["state_fingerprint"] \
                == entry["traced"]["state_fingerprint"]
    assert result["workloads"]["steady_async"]["untraced"]["checks"][
        "late_accounting_as_predicted"]
    for metric in END_TO_END + PER_LAYER:
        assert any(line.startswith(metric.name + " ")
                   and line.rstrip().endswith(" " + metric.unit)
                   for line in stdout.splitlines()), metric.name
    conditions = result["conditions"]
    for key in ("nproc", "python", "numpy", "git_sha", "code_sha"):
        assert conditions[key]


def test_single_run_ends_with_the_result_object():
    done = _bench("--workload", "hubs_inline", "--seed", "3",
                  "--seconds", "2", "--trace", "0")
    assert done.returncode == 0, done.stderr[-2000:]
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0
    assert {name: value["unit"] for name, value in last["metrics"].items()} \
        == {m.name: m.unit for m in END_TO_END}
    assert all(value["value"] > 0 for value in last["metrics"].values())


def test_no_process_outlives_a_run():
    """Orphans of the run would be re-parented to this (subreaper) process."""
    become_subreaper()
    done = _bench("--workload", "steady_async", "--seed", "3",
                  "--seconds", "2", "--trace", "0")
    assert done.returncode == 0, done.stderr[-2000:]
    with pytest.raises(ChildProcessError):   # no child, not even a zombie
        os.waitpid(-1, os.WNOHANG)


def test_seed_decides_the_stream():
    for workload in WORKLOADS:
        first = workload.generate(0, 2)
        again = workload.generate(0, 2)
        other = workload.generate(1, 2)
        for column in ("src", "dst", "timestamps", "edge_features"):
            assert np.array_equal(getattr(first, column),
                                  getattr(again, column))
        assert not np.array_equal(first.src, other.src)
        assert not np.array_equal(first.timestamps, other.timestamps)


def test_working_tree_is_left_as_found(quick_run):
    _, _, before = quick_run
    if before is None:
        pytest.skip("not a git checkout")
    assert _git_status() == before
