GO ?= go

.PHONY: all build test race cover lint bench fuzz

all: build test lint

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Coverage profile + per-function summary; CI uploads cover.out as an
# artifact from the cover job.
cover:
	$(GO) test -coverprofile=cover.out -covermode=atomic ./...
	$(GO) tool cover -func=cover.out | tail -1

# The full local static-analysis gate: go vet + the in-repo squid-lint
# analyzer suite (+ staticcheck/govulncheck when installed). See
# DESIGN.md §4e.
lint:
	scripts/lint.sh

# The end-to-end benchmark BENCHMARK.json declares (see bench/README.md).
bench:
	bash bench/run.sh

# Short local fuzz sweep over every Fuzz target (10s each); CI's nightly
# job runs the same script at 60s each.
fuzz:
	scripts/fuzz.sh 10s
