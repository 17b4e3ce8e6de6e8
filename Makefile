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

# Short local fuzz sweep (10s per target); CI's nightly job runs 60s each.
fuzz:
	for f in FuzzHilbertRoundTrip FuzzRefineStepSound FuzzKernelEquivalence; do \
		$(GO) test -run '^$$' -fuzz "^$$f$$" -fuzztime 10s ./internal/sfc || exit 1; \
	done
	for f in FuzzParse FuzzWordDimConsistency FuzzSpaceSoundness; do \
		$(GO) test -run '^$$' -fuzz "^$$f$$" -fuzztime 10s ./internal/keyspace || exit 1; \
	done
