#!/usr/bin/env bash
# Same-code noise check. Runs two interleaved sets (A B A B ...) of N runs of
# the benchmark's command on every workload, run i of either set with seed i,
# the way the driver invokes it, and prints
# per workload x end-to-end metric: both medians, both inter-quartile ranges
# as a share of the median, the relative difference of the medians in the
# metric's worse direction, and the bound from BENCHMARK.json.
#
# Exit status 1 if a cell's medians differ by more than its bound, or a
# cell's spread exceeds its bound (setup_s excepted, as in the driver).
# Cells over half their bound are flagged "half".
#
#   bench/selfcheck.sh [N=5] [seconds=run_seconds]
set -euo pipefail
cd "$(dirname "$0")/.."
n="${1:-5}"
seconds="${2:-$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')}"
out=bench/out/selfcheck
mkdir -p "$out"
for w in $(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))'); do
  : >"$out/$w.A" >"$out/$w.B"
  for i in $(seq 1 "$n"); do
    for set in A B; do
      bash bench/run.sh --workload "$w" --seed "$i" --seconds "$seconds" --trace 0 | tail -n 1 >>"$out/$w.$set"
    done
  done
done
python3 - "$out" <<'PY'
import json, statistics, sys
out = sys.argv[1]
spec = json.load(open("BENCHMARK.json"))
def load(path):
    return [json.loads(line) for line in open(path)]
def spread(xs):
    q = statistics.quantiles(xs, n=4)
    m = statistics.median(xs)
    return (q[2] - q[0]) / m if m else 0.0
bad = False
print("| workload | metric | median A | median B | IQR/med A | IQR/med B | B worse by | bound | |")
print("|---|---|---|---|---|---|---|---|---|")
for w in spec["workloads"]:
    a, b = load(f"{out}/{w['name']}.A"), load(f"{out}/{w['name']}.B")
    for r in a + b:
        if not r["correct"]:
            bad = True
            print(f"| {w['name']} | run failed: {r['failed']} of {r['attempted']} | | | | | | | FAIL |")
    for m in spec["end_to_end"]:
        xa = [r["metrics"][m["name"]]["value"] for r in a]
        xb = [r["metrics"][m["name"]]["value"] for r in b]
        ma, mb = statistics.median(xa), statistics.median(xb)
        worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
        sa, sb = spread(xa), spread(xb)
        flag = ""
        worst = max(worse, 0 if m["name"] == "setup_s" else max(sa, sb))
        if worst > m["bound"]:
            flag, bad = "OVER", True
        elif worst > m["bound"] / 2:
            flag = "half"
        print(f"| {w['name']} | {m['name']} | {ma:.6g} | {mb:.6g} | {sa:.4f} | {sb:.4f} | {worse:+.4f} | {m['bound']} | {flag} |")
sys.exit(1 if bad else 0)
PY
