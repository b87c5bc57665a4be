#!/usr/bin/env bash
# Alternating A/B runs of the repo benchmark: a parent revision against
# the working tree.
#
# The parent's files are exported with `git archive` into the scratch
# directory `${TMPDIR:-/tmp}/bench-pair` and its benchmark is built there; the tree's is built in place. Then, per
# workload, N pairs run back to back, the parent first in odd pairs and
# the tree first in even ones, each with `--trace 0` from its own root.
# For every end-to-end metric the report gives each side's median,
# quartiles and wins (the pairs in which it was strictly better, in the
# metric's direction from BENCHMARK.json), then every exact value — the
# hub counter line and the allocation metrics — on which the two sides'
# first runs differ.
#
# Usage, from the repository root:
#   scripts/bench-pair.sh <parent-rev> [workload...] [--pairs N] [--seed N] [--seconds S]
#   e.g. scripts/bench-pair.sh HEAD~1 version_bumps --pairs 10 --seed 2
# Defaults: every workload of BENCHMARK.json, 10 pairs, seed 1, and the
# run length BENCHMARK.json declares.
set -euo pipefail

usage() {
    echo "usage: $0 <parent-rev> [workload...] [--pairs N] [--seed N] [--seconds S]" >&2
    exit 2
}

[ "$#" -ge 1 ] || usage
rev=$1
shift
pairs=10
seed=1
seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
workloads=()
while [ "$#" -gt 0 ]; do
    case $1 in
        --pairs) pairs=${2:?}; shift 2 ;;
        --seed) seed=${2:?}; shift 2 ;;
        --seconds) seconds=${2:?}; shift 2 ;;
        -*) usage ;;
        *) workloads+=("$1"); shift ;;
    esac
done
if [ "${#workloads[@]}" -eq 0 ]; then
    mapfile -t workloads < <(python3 -c '
import json
for w in json.load(open("BENCHMARK.json"))["workloads"]:
    print(w["name"])')
fi

tree=$(pwd)
scratch=${TMPDIR:-/tmp}/bench-pair
parent="$scratch/parent"
runs="$scratch/runs"
rm -rf "$parent" "$runs"
mkdir -p "$parent" "$runs"
git archive "$rev" | tar -x -C "$parent"
echo "parent $(git rev-parse --short "$rev") exported to $parent" >&2

build() {
    CARGO_TARGET_DIR="$1/benchmark/target" \
        cargo build --release --offline --quiet --manifest-path "$1/benchmark/Cargo.toml"
}
build "$parent"
build "$tree"

# run <side> <root> <workload> <pair>: one benchmark run, its whole output
# kept as $runs/<workload>.<side>.<pair>.
run() {
    local out="$runs/$3.$1.$4"
    (cd "$2" && "$2/benchmark/target/release/repo-benchmark" \
        --workload "$3" --seed "$seed" --seconds "$seconds" --trace 0 > "$out")
    tail -n 1 "$out" | grep -q '"correct": true' || echo "$1 pair $4 of $3 was not correct" >&2
}

for workload in "${workloads[@]}"; do
    for pair in $(seq 1 "$pairs"); do
        if [ $((pair % 2)) -eq 1 ]; then
            run parent "$parent" "$workload" "$pair"
            run tree "$tree" "$workload" "$pair"
        else
            run tree "$tree" "$workload" "$pair"
            run parent "$parent" "$workload" "$pair"
        fi
        echo "$workload: pair $pair of $pairs done" >&2
    done
    python3 - "$runs" "$workload" "$pairs" <<'EOF'
import json, statistics, sys

runs, workload, pairs = sys.argv[1], sys.argv[2], int(sys.argv[3])
better = {m["name"]: m["better"] for m in json.load(open("BENCHMARK.json"))["end_to_end"]}

def output(side, pair):
    with open(f"{runs}/{workload}.{side}.{pair}") as f:
        return f.read().splitlines()

def metrics(side, pair):
    return {k: v["value"] for k, v in json.loads(output(side, pair)[-1])["metrics"].items()}

parent = [metrics("parent", p) for p in range(1, pairs + 1)]
tree = [metrics("tree", p) for p in range(1, pairs + 1)]

def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return median, q1, q3

print(f"== {workload}: {pairs} pairs (median [q1, q3]; wins = pairs strictly better)")
for name, direction in better.items():
    if name not in parent[0]:
        continue
    a = [m[name] for m in parent]
    b = [m[name] for m in tree]
    sign = 1 if direction == "higher" else -1
    wins_b = sum(sign * (y - x) > 0 for x, y in zip(a, b))
    wins_a = sum(sign * (x - y) > 0 for x, y in zip(a, b))
    (ma, qa1, qa3), (mb, qb1, qb3) = quartiles(a), quartiles(b)
    change = (mb - ma) / ma * 100 if ma else 0.0
    print(
        f"  {name:<22} parent {ma:>11.4f} [{qa1:.4f}, {qa3:.4f}] wins {wins_a:>2}"
        f" · tree {mb:>11.4f} [{qb1:.4f}, {qb3:.4f}] wins {wins_b:>2}"
        f" · {change:+.1f} % · parent IQR {qa3 - qa1:.4f}"
    )

def exact(side):
    values = {}
    for line in output(side, 1):
        if line.startswith("hub counters"):
            for item in line.split(":", 1)[1].split():
                key, value = item.split("=")
                values[key] = value
    for name in ("allocs_per_package", "alloc_mb_per_package"):
        values[name] = repr(metrics(side, 1).get(name))
    return values

a, b = exact("parent"), exact("tree")
differ = [k for k in sorted(set(a) | set(b)) if a.get(k) != b.get(k)]
print(f"  exact values that differ: {len(differ)}")
for key in differ:
    print(f"    {key}: parent {a.get(key)} -> tree {b.get(key)}")
EOF
done
