#!/usr/bin/env bash
# Run the full static-analysis gate locally — the same checks CI requires:
#
#   scripts/lint.sh [packages ...]
#
# Packages default to ./... . Always runs gofmt, go vet and the in-repo
# squid-lint analyzer suite (see DESIGN.md §4e); staticcheck and
# govulncheck run too when they are on PATH (CI installs them, local
# machines may not have them).
set -euo pipefail
cd "$(dirname "$0")/.."
pkgs=("${@:-./...}")

echo "== gofmt -l"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
  echo "$unformatted"
  echo "gofmt: the files above are not formatted (run gofmt -w)"
  exit 1
fi

echo "== go vet ${pkgs[*]}"
go vet "${pkgs[@]}"

echo "== squid-lint ${pkgs[*]}"
go run ./cmd/squid-lint "${pkgs[@]}"

echo "== squid-lint -allocs ${pkgs[*]}"
go run ./cmd/squid-lint -allocs "${pkgs[@]}"

echo "== squid-lint -allows"
go run ./cmd/squid-lint -allows

if command -v staticcheck >/dev/null 2>&1; then
  echo "== staticcheck ${pkgs[*]}"
  staticcheck "${pkgs[@]}"
else
  echo "== staticcheck: not installed, skipping (CI runs it)"
fi

if command -v govulncheck >/dev/null 2>&1; then
  echo "== govulncheck ${pkgs[*]}"
  govulncheck "${pkgs[@]}"
else
  echo "== govulncheck: not installed, skipping (CI runs it)"
fi

echo "lint: clean"
