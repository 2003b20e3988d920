#!/usr/bin/env bash
# A/A check: is the benchmark steady enough to gate on its own bounds?
#
#   benchmarks/aa.sh [RUNS] > benchmarks/AA.md      (RUNS per set, default 10)
#
# Runs the same build in two interleaved sets (A, B, A, B, …) of RUNS
# runs per workload, run i of either set with seed 100+i — the driver's
# own procedure. Prints, per workload × end-to-end metric, each set's
# median and quartiles, the spread (IQR ÷ median) and how much worse
# set B's median is than set A's. Exits non-zero if a spread (except
# setup_s's) or a median shift exceeds the metric's bound in
# BENCHMARK.json. Every run's result object stays in benchmarks/out/aa/.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
runs="${1:-10}"
seconds="$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')"
workloads="$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')"
results=benchmarks/out/aa
rm -rf "$results"
mkdir -p "$results"

for i in $(seq 1 "$runs"); do
    for workload in $workloads; do
        for set in A B; do
            bash benchmarks/bench.sh --workload "$workload" --seed $((100 + i)) \
                --seconds "$seconds" --trace 0 | tail -n 1 >"$results/$workload.$set.$i.json"
            echo "aa: $workload set $set run $i/$runs done" >&2
        done
    done
done

python3 - "$results" "$runs" <<'EOF'
import json, statistics, sys
results, runs = sys.argv[1], int(sys.argv[2])
bench = json.load(open("BENCHMARK.json"))
print("# A/A: two interleaved sets of %d runs of one build\n" % runs)
print("Seeds 101…%d, %d s per run, `benchmarks/aa.sh %d`. Spread = (Q3 − Q1) ÷ median, as"
      % (100 + runs, bench["run_seconds"], runs))
print("`statistics.quantiles(values, n=4)` gives them. A spread (except `setup_s`'s) or a")
print("median shift beyond the metric's bound fails the check.\n")
bad = 0
for w in [w["name"] for w in bench["workloads"]]:
    print("## %s\n" % w)
    print("| metric | unit | bound | A median [Q1, Q3] | A spread | B median [Q1, Q3] | B spread | B worse by | |")
    print("|---|---|---|---|---|---|---|---|---|")
    sets = {}
    for s in "AB":
        sets[s] = [json.load(open("%s/%s.%s.%d.json" % (results, w, s, i))) for i in range(1, runs + 1)]
        for r in sets[s]:
            if not r["correct"] or r["failed"]:
                bad += 1
                print("run of set %s not correct: %s\n" % (s, r))
    for m in bench["end_to_end"]:
        cells, med, spreads = [], {}, {}
        for s in "AB":
            v = [r["metrics"][m["name"]]["value"] for r in sets[s]]
            q1, q2, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0],) * 3
            med[s], spreads[s] = q2, (q3 - q1) / q2
            cells += ["%.5g [%.5g, %.5g]" % (q2, q1, q3), "%.4f" % spreads[s]]
        shift = (med["B"] - med["A"]) / med["A"]
        worse = shift if m["better"] == "lower" else -shift
        ok = worse <= m["bound"] and (m["name"] == "setup_s" or max(spreads.values()) <= m["bound"])
        bad += not ok
        print("| %s | %s | %.3f | %s | %+.4f | %s |"
              % (m["name"], m["unit"], m["bound"], " | ".join(cells), worse, "ok" if ok else "**FAIL**"))
    print()
print("Result: %s" % ("every spread and shift is within its bound." if not bad else "%d failures." % bad))
sys.exit(1 if bad else 0)
EOF
