#!/usr/bin/env bash
# Run every fuzz target in the module, one after another:
#
#   scripts/fuzz.sh DURATION      e.g. scripts/fuzz.sh 10s
#
# Targets are found with `go test -list '^Fuzz'` per package, so a new
# Fuzz function is picked up without editing this script. `make fuzz` runs
# it at 10s per target, CI's nightly fuzz job at 60s. Exits nonzero on the
# first target that fails (the failing input lands in that package's
# testdata/fuzz directory, as usual).
set -euo pipefail
cd "$(dirname "$0")/.."
dur=${1:?usage: scripts/fuzz.sh DURATION}

# `go test -list` prints a package's matching names, then its "ok <pkg>"
# line; emit one "<pkg> <name>..." line per package that has targets.
targets=$(go test -list '^Fuzz' ./... | awk '
  /^Fuzz/ { names = names " " $1 }
  /^ok /  { if (names != "") print $2 names; names = "" }')
if [ -z "$targets" ]; then
  echo "fuzz: no targets found"
  exit 1
fi

n=0
while read -r pkg names; do
  for f in $names; do
    echo "== $pkg $f ($dur)"
    go test -run '^$' -fuzz "^${f}\$" -fuzztime "$dur" "$pkg"
    n=$((n + 1))
  done
done <<<"$targets"
echo "fuzz: $n targets passed"
