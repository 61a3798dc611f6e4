#!/usr/bin/env bash
# Alternating parent/change pairs of one `python -m bench` workload.
#
#   tools/bench_pairs.sh <parent-checkout> <workload> <pairs> [seed] [seconds]
#
# <parent-checkout> is a second copy of the parent commit (git clone or
# git archive, outside this tree); the change is the checkout this script
# lives in.  Each pair is one untraced run per side; odd pairs run the parent
# first, even pairs the change first, so drift in the machine's load does not
# favour a side.  Nothing else should be running: the VM has two cores.
#
# Prints, per end-to-end metric, each side's median and quartiles, the ratio
# of the medians (parent is the base), the pairs the change won / lost / tied,
# and whether the medians differ by more than the parent's own interquartile
# range — the rule a perf claim here is accepted by (>= 9/10 wins and a gap
# wider than that range).  Every run file is kept under
# bench/out/pairs_<workload>_seed<seed>/ (ignored by git).
set -euo pipefail

if [ "$#" -lt 3 ]; then
    sed -n '2,5p' "$0" >&2
    exit 2
fi
parent=$(cd "$1" && pwd)
workload=$2
pairs=$3
seed=${4:-0}
seconds=${5:-15}
change=$(cd "$(dirname "$0")/.." && pwd)
out="$change/bench/out/pairs_${workload}_seed${seed}"
mkdir -p "$out"

run_side() {  # <checkout> <label> <pair index>
    (cd "$1" && python -m bench --workload "$workload" --seed "$seed" \
        --seconds "$seconds" --trace 0 > "$out/$2_$3.log")
    newest=$(ls -t "$1"/bench/out/run_"${workload}"_seed"${seed}"_s*_t0.json | head -n 1)
    cp "$newest" "$out/$2_$3.json"
    echo "pair $3 $2 done" >&2
}

for i in $(seq 1 "$pairs"); do
    if [ $((i % 2)) -eq 1 ]; then
        run_side "$parent" parent "$i"
        run_side "$change" change "$i"
    else
        run_side "$change" change "$i"
        run_side "$parent" parent "$i"
    fi
done

python - "$out" "$pairs" "$change/BENCHMARK.json" <<'EOF'
import json
import sys
from statistics import quantiles

out, pairs = sys.argv[1], int(sys.argv[2])
BETTER = {metric["name"]: metric["better"]
          for metric in json.load(open(sys.argv[3]))["end_to_end"]}


def load(label):
    return [json.load(open(f"{out}/{label}_{i}.json")) for i in range(1, pairs + 1)]


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    return tuple(quantiles(values, n=4, method="inclusive"))


parent, change = load("parent"), load("change")
first = parent[0]
print(f"{first['workload']}  seed {first['seed']}  {first['seconds']:g} s  "
      f"{pairs} alternating pairs  (parent is the base)")
for side, runs in (("parent", parent), ("change", change)):
    failed = sum(run["failed"] for run in runs)
    attempted = sum(run["attempted"] for run in runs)
    bad = sorted({name for run in runs
                  for name, ok in run["checks"].items() if not ok})
    prints = {run["state_fingerprint"] for run in runs} - {None}
    print(f"  {side}: failed {failed}/{attempted}, checks failed: {bad or 'none'}"
          + (f", state_fingerprint {sorted(prints)}" if prints else ""))
print(f"{'metric':18s} {'parent q1 / median / q3':>36s} "
      f"{'change q1 / median / q3':>36s} {'ratio':>7s}  won/lost/tied  gap>IQR")
for name in first["end_to_end"]:
    a = [run["end_to_end"][name] for run in parent]
    b = [run["end_to_end"][name] for run in change]
    sign = -1.0 if BETTER[name] == "lower" else 1.0
    won = sum(sign * (y - x) > 0 for x, y in zip(a, b))
    lost = sum(sign * (y - x) < 0 for x, y in zip(a, b))
    (a1, a2, a3), (b1, b2, b3) = quartiles(a), quartiles(b)
    print(f"{name:18s} {a1:11.4g} /{a2:11.4g} /{a3:11.4g} "
          f"{b1:11.4g} /{b2:11.4g} /{b3:11.4g} {b2 / a2:7.3f}  "
          f"{won:3d}/{lost}/{pairs - won - lost}        "
          f"{'yes' if abs(b2 - a2) > a3 - a1 else 'no'}")
EOF
