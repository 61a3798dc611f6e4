"""Command line of the benchmark.

``python -m bench``                       all workloads, untraced then traced
``python -m bench --quick``               the same at 2 s per run
``python -m bench --workload W --seed N --seconds S --trace 0|1``   one run
``python -m bench --compare A.json B.json``   gate B against A

Every run is its own process under ``bench.supervise``, which returns only
when every process the run started has ended (``--child`` marks that process).
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import OUT_DIR
from .compare import compare_files
from .conditions import run_conditions
from .driver import run
from .metrics import END_TO_END, PER_LAYER, RUN_SECONDS, render
from .supervise import supervised
from .workloads import BY_NAME

QUICK_SECONDS = 2


def _print_metrics(title: str, metrics: tuple, values: dict) -> None:
    print(f"-- {title}")
    for metric in metrics:
        if metric.name in values:
            print(f"{metric.name:52s} {float(values[metric.name]):14.4f} "
                  f"{metric.unit}")


def _run_file(workload: str, seed: int, seconds: float, traced: bool):
    return OUT_DIR / (f"run_{workload}_seed{seed}_s{seconds:g}"
                      f"_t{int(traced)}.json")


def _load(path) -> dict | None:
    try:
        with open(path) as handle:
            return json.load(handle)
    except (OSError, ValueError):
        return None


def _supervised_run(name: str, seed: int, seconds: float, traced: bool) -> int:
    return supervised(["--workload", name, "--seed", str(seed),
                       "--seconds", f"{seconds:g}",
                       "--trace", str(int(traced))])


def run_one(name: str, seed: int, seconds: float, traced: bool) -> int:
    """One run in this process; last stdout line is the result object."""
    conditions = run_conditions()
    record = run(BY_NAME[name], seed, seconds, traced)
    record["conditions"] = conditions

    # Earlier runs of the same code, workload, seed and length in this
    # checkout: the inline fingerprint must repeat, and the untraced run is
    # the base of the tracing overhead.
    earlier = [found for found in
               (_load(_run_file(name, seed, seconds, t)) for t in (False, True))
               if found and found["conditions"]["code_sha"]
               == conditions["code_sha"]]
    if record["state_fingerprint"] is not None:
        record["checks"]["fingerprint_repeats"] = all(
            found["state_fingerprint"] == record["state_fingerprint"]
            for found in earlier)
    if traced:
        base = next((found["end_to_end"]["cpu_s_per_kevent"]
                     for found in earlier if not found["traced"]), None)
        record["untraced_cpu_s_per_kevent"] = base
        if base:
            record["per_layer"]["obs.traced_over_untraced_cpu"] = \
                record["end_to_end"]["cpu_s_per_kevent"] / base

    correct = all(record["checks"].values())
    record["correct"] = correct
    record["attempted"] = record["events"]
    record["failed"] = 0 if correct else record["events"]

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    with open(_run_file(name, seed, seconds, traced), "w") as handle:
        json.dump(record, handle, indent=1)

    print(f"== {name}  seed={seed} seconds={seconds:g} traced={int(traced)}  "
          f"sent={record['sent']} scored={record['scored']} "
          f"failed={record['failed']}")
    for check, passed in record["checks"].items():
        print(f"check {check:40s} {'ok' if passed else 'FAILED'}")
    if not record["kept_up_with_offered_rate"]:
        print("warning: served rate is more than 2% below the offered rate",
              file=sys.stderr)
    if record["state_fingerprint"]:
        print(f"state_fingerprint sha256:{record['state_fingerprint']}")
    _print_metrics("end to end" + (" (under tracing)" if traced else ""),
                   END_TO_END, record["end_to_end"])
    if traced:
        _print_metrics("per layer", PER_LAYER, record["per_layer"])
        unaccounted = record["per_layer"]["driver.unaccounted_share"]
        if unaccounted >= 0.10:
            print(f"warning: driver.unaccounted_share {unaccounted:.3f} "
                  f">= 0.10", file=sys.stderr)
    else:
        _print_metrics("not gated (also in the traced run)", PER_LAYER,
                       record["not_gated"])
    metrics = render(PER_LAYER, record["per_layer"]) if traced \
        else render(END_TO_END, record["end_to_end"])
    print(json.dumps({"correct": correct, "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    return 0


def run_all(seed: int, seconds: float, out, names) -> int:
    """Every workload untraced then traced, each run its own process."""
    result = {"conditions": run_conditions(), "seed": seed,
              "seconds": seconds, "workloads": {}}
    failed = False
    for name in names:
        entry = result["workloads"][name] = {"why": BY_NAME[name].why}
        for traced in (False, True):
            status = _supervised_run(name, seed, seconds, traced)
            record = _load(_run_file(name, seed, seconds, traced))
            if status != 0 or record is None:
                print(f"{name}: run exited with {status}", file=sys.stderr)
                failed = True
                continue
            failed |= not record["correct"]
            key = "traced" if traced else "untraced"
            entry[key] = {k: record[k] for k in (
                "events", "nodes", "workers", "pacing", "sent", "scored",
                "failed", "checks", "state_fingerprint", "wall_s", "cpu_s")}
            if traced:
                entry["per_layer"] = record["per_layer"]
                entry["untraced_cpu_s_per_kevent"] = \
                    record["untraced_cpu_s_per_kevent"]
            else:
                entry["end_to_end"] = record["end_to_end"]
                entry["not_gated"] = record["not_gated"]
    if out is None:
        out = OUT_DIR / time.strftime("result_%Y%m%dT%H%M%S.json")
    with open(out, "w") as handle:
        json.dump(result, handle, indent=1)
    print(f"results written to {out}")
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench",
                                     description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run this one workload and print "
                        "the result object as the last line")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help=f"run length (default {RUN_SECONDS})")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help=f"{QUICK_SECONDS} s runs of every workload")
    parser.add_argument("--out", help="result file of a full run "
                        "(default bench/out/result_<time>.json)")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--child", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.compare:
        return compare_files(*args.compare)
    seconds = args.seconds if args.seconds is not None \
        else (QUICK_SECONDS if args.quick else RUN_SECONDS)
    if seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload is not None:
        if args.workload not in BY_NAME:
            parser.error(f"unknown workload {args.workload!r}; "
                         f"choose from {', '.join(BY_NAME)}")
        one = run_one if args.child else _supervised_run
        return one(args.workload, args.seed, seconds, bool(args.trace))
    return run_all(args.seed, seconds, args.out, list(BY_NAME))


if __name__ == "__main__":
    sys.exit(main())
