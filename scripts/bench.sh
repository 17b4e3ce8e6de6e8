#!/usr/bin/env bash
# Refresh a benchmark-regression snapshot, writing BENCH_<id>.json at the
# repo root. Usage:
#
#   scripts/bench.sh [id] [factor]
#
# id     snapshot number (default 1 -> BENCH_1.json). Snapshots have fixed
#        meanings: 1 = hot-path micro + Fig. 9 system section,
#        2 = concurrent-load scheduler,
#        4 = discrete-event planet-scale sweep (100 to 10000 nodes),
#        5 = streaming (top-k early-termination savings + result-cache
#        hit rate under a Zipf storm).
# factor fraction of the paper's scale for the system section of snapshot 1
#        (default 0.02)
set -euo pipefail
cd "$(dirname "$0")/.."
id="${1:-1}"
factor="${2:-0.02}"
case "$id" in
2) go run ./cmd/squid-bench -sched-json "BENCH_${id}.json" ;;
4) go run ./cmd/squid-bench -des-json "BENCH_${id}.json" ;;
5) go run ./cmd/squid-bench -stream-json "BENCH_${id}.json" ;;
*) go run ./cmd/squid-bench -bench-json "BENCH_${id}.json" -factor "$factor" ;;
esac
