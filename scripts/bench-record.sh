#!/usr/bin/env bash
# Records the benchmark trajectory: one run of every workload at seeds 1
# and 2, written to BENCH_<pr>.json at the repository root.
#
# The file holds the commit the tree was measured at (`git describe
# --always --dirty`, so a tree measured before it is committed reads
# `<parent>-dirty`), the hardware thread count, the run length, and per
# run its workload, seed and the benchmark's JSON result line as
# printed. Exact metrics (allocation counts, detection ratios, the
# `correct` flag) are recorded as they are; a timing is one run's value.
# CI's allocation gate reads its seed-1 baselines from the newest
# BENCH_*.json (the highest <pr>).
#
# Usage, from the repository root:
#   scripts/bench-record.sh <pr>
#   e.g. scripts/bench-record.sh 43
# Every run takes the run length BENCHMARK.json declares, so the timings
# of two recordings compare. Exits
# non-zero, writing nothing, when a run exits non-zero (a verdict differed
# from the exhaustive oracle or an exact metric did not repeat).
set -euo pipefail

if [ "$#" -ne 1 ] || ! [[ "$1" =~ ^[0-9]+$ ]]; then
    echo "usage: $0 <pr>" >&2
    exit 2
fi
pr=$1
seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
mapfile -t workloads < <(python3 -c '
import json
for w in json.load(open("BENCHMARK.json"))["workloads"]:
    print(w["name"])')

runs=$(mktemp -d)
trap 'rm -rf "$runs"' EXIT
CARGO_TARGET_DIR=benchmark/target \
    cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
for seed in 1 2; do
    for workload in "${workloads[@]}"; do
        benchmark/target/release/repo-benchmark \
            --workload "$workload" --seed "$seed" --seconds "$seconds" \
            | tail -n 1 > "$runs/$workload.$seed"
        echo "$workload seed $seed recorded" >&2
    done
done

out="BENCH_$pr.json"
python3 - "$runs" "$out" "$pr" "$seconds" "$(git describe --always --dirty)" \
    "$(nproc)" "${workloads[@]}" <<'EOF'
import json, sys

runs, out, pr, seconds, commit, threads, *workloads = sys.argv[1:]
record = {
    "pr": int(pr),
    "commit": commit,
    "hardware_threads": int(threads),
    "seconds": json.loads(seconds),
    "runs": [
        {
            "workload": workload,
            "seed": seed,
            "result": json.load(open(f"{runs}/{workload}.{seed}")),
        }
        for seed in (1, 2)
        for workload in workloads
    ],
}
with open(out, "w") as f:
    json.dump(record, f, indent=1)
    f.write("\n")
EOF
echo "wrote $out" >&2
