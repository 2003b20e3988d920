#!/usr/bin/env bash
# Run the benchmark by hand:
#
#   benchmarks/run.sh [workload…] [--seed S] [--traced]
#
# Builds, then runs one process per workload (all five by default) for
# BENCHMARK.json's run_seconds, printing one `workload metric value unit`
# line per metric. Each run also leaves its result object in
# benchmarks/out/<workload>.json (<workload>.traced.json and
# <workload>.spans.jsonl with --traced). Exits non-zero if a run fails
# or one of its output checks does.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
seed=2019
trace=0
workloads=()
while [ $# -gt 0 ]; do
    case "$1" in
    --seed)
        seed="$2"
        shift 2
        ;;
    --traced)
        trace=1
        shift
        ;;
    -*)
        echo "usage: benchmarks/run.sh [workload…] [--seed S] [--traced]" >&2
        exit 2
        ;;
    *)
        workloads+=("$1")
        shift
        ;;
    esac
done
field() { python3 -c "import json; b = json.load(open('BENCHMARK.json')); print($1)"; }
seconds="$(field 'b["run_seconds"]')"
if [ ${#workloads[@]} -eq 0 ]; then
    read -r -a workloads <<<"$(field '" ".join(w["name"] for w in b["workloads"])')"
fi
status=0
for workload in "${workloads[@]}"; do
    out="$(bash benchmarks/bench.sh --workload "$workload" --seed "$seed" \
        --seconds "$seconds" --trace "$trace")"
    grep -v '^{' <<<"$out"
    if ! tail -n 1 <<<"$out" | grep -q '"correct": true, .*"failed": 0,'; then
        echo "run.sh: $workload: output checks failed" >&2
        status=1
    fi
done
exit "$status"
