#!/usr/bin/env bash
# The command BENCHMARK.json names. Builds the benchmark from source into
# .bench_build/ at the root of the checkout and runs it with the arguments
# given. Everything the build writes (the go build cache, its temporary
# files, the toolchain's own counters) is kept inside the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/cache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
if [ -z "${GOPATH:-}" ] && [ -z "${HOME:-}" ]; then
  export GOPATH="$build/gopath"
fi
go build -o "$build/squid-bench" ./bench
exec "$build/squid-bench" "$@"
