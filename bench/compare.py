"""``python -m bench --compare A.json B.json``: gate B against A.

A and B are result files of full runs.  For every workload and end-to-end
metric: both values, the ratio B/A (A is the base), the metric's bound and
pass/fail.  B fails a metric when it is worse than A by more than the bound.
"""

from __future__ import annotations

import json

from .metrics import END_TO_END

# Tails and staleness are too unsteady on a small shared host to gate, but
# they are what the serving path is for: shown beside the verdicts.
SHOWN_NOT_GATED = (
    "driver.decision_p95_ms", "driver.decision_p99_ms",
    "driver.slo_miss_share", "serving.runtime.staleness_p50_ms",
    "serving.runtime.staleness_p95_ms",
)


def worsening(metric, base: float, value: float) -> float:
    """How much worse ``value`` is than ``base``, as a share of ``base``."""
    if base == 0:
        return 0.0 if value == 0 else float("inf")
    change = (value - base) / abs(base)
    return change if metric.better == "lower" else -change


def compare_files(path_a: str, path_b: str) -> int:
    with open(path_a) as handle:
        a = json.load(handle)
    with open(path_b) as handle:
        b = json.load(handle)
    print(f"A (base): {path_a}  code {a['conditions']['code_sha'][:12]}  "
          f"seed {a['seed']}  {a['seconds']:g} s")
    print(f"B       : {path_b}  code {b['conditions']['code_sha'][:12]}  "
          f"seed {b['seed']}  {b['seconds']:g} s")
    print(f"{'workload':14s} {'metric':18s} {'A':>12s} {'B':>12s} "
          f"{'B/A':>7s} {'bound':>6s}  verdict")
    failures = 0
    for name, entry_a in a["workloads"].items():
        entry_b = b["workloads"].get(name)
        if entry_b is None or "end_to_end" not in entry_a \
                or "end_to_end" not in entry_b:
            print(f"{name:14s} missing from one side: FAIL")
            failures += 1
            continue
        for metric in END_TO_END:
            base = entry_a["end_to_end"][metric.name]
            value = entry_b["end_to_end"][metric.name]
            passed = worsening(metric, base, value) <= metric.bound
            failures += not passed
            ratio = value / base if base else float("nan")
            print(f"{name:14s} {metric.name:18s} {base:12.4f} {value:12.4f} "
                  f"{ratio:7.3f} {metric.bound:6.2f}  "
                  f"{'pass' if passed else 'FAIL'} ({metric.unit}, "
                  f"{metric.better} is better)")
        for name_ng in SHOWN_NOT_GATED:
            base = entry_a["not_gated"][name_ng]
            value = entry_b["not_gated"][name_ng]
            ratio = value / base if base else float("nan")
            print(f"{name:14s} {name_ng.split('.')[-1]:18s} {base:12.4f} "
                  f"{value:12.4f} {ratio:7.3f} {'-':>6s}  not gated")
        for side, entry in (("A", entry_a), ("B", entry_b)):
            if entry["untraced"]["failed"]:
                print(f"{name:14s} {side} failed its correctness checks: FAIL")
                failures += 1
    print(f"{failures} failing" if failures else "all within bounds")
    return 1 if failures else 0
