# Developer entry points. `make check` is the gate every PR must pass.

.PHONY: check check-fast build test race chaos crash serve-smoke bench bench-compare

check:
	./scripts/check.sh

# check-fast is the inner-loop gate: everything in check except the parser
# fuzz smokes.
check-fast:
	./scripts/check.sh --fast

build:
	go build ./...

test:
	go test ./...

race:
	go test -race ./internal/netsim/... ./internal/core/scan/... \
		./internal/telescope/... ./internal/attack/... ./internal/honeypot/... \
		./internal/iot/ ./internal/datasets/ ./internal/core/classify/ \
		./internal/protocols/... ./internal/obs/... ./internal/expr/ ./internal/serve/

# chaos runs just the fault-model gate: the equivalence tests (zero-fault
# noop, cross-worker determinism, ±2% calibrated drift) under the race
# detector, then scripts/fuzz_smoke.sh: every Fuzz target in the module, found
# with `go test -list`, for 10 fresh inputs each.
chaos:
	go test -race -run 'TestChaos|TestBackoff|TestCancelMidSegmentResumes' \
		./internal/core/scan/ ./internal/core/classify/
	go test -race ./internal/netsim/faults/
	./scripts/fuzz_smoke.sh

# crash runs the kill-and-resume gate: checkpoint container round-trip and
# corruption rejection, per-leg resume property tests, and the crashpoint
# sweep — each of the five binaries killed at every registered durable-state
# transition, resumed, and byte-compared against an uninterrupted golden
# run — plus the run harness's own tests (signal ladder, chain, manifest
# epilogue), all under the race detector.
crash:
	go test -race -count=1 ./internal/checkpoint/... ./internal/cli/

# serve-smoke drives openhire-serve end to end: golden run, kill/resume
# byte-identity of the aggregates, time-series artifacts and hourly capture
# files (one kill inside the hour-file group, no staging file left), a
# resumed checkpoint that carries no honeypot log, the inspect
# timeline renderer in file and live-URL modes, and a live daemon answering
# the query API (including /api/timeseries) mid-run before a graceful
# SIGINT shutdown.
serve-smoke:
	./scripts/serve_smoke.sh

# bench runs the measurement spine (BENCHMARK.json): every workload, untraced
# then traced, three runs each, into one record. bench-compare exits 1 when an
# end-to-end metric of B is outside its bound relative to A:
#   make bench OUT=before.json; ...; make bench OUT=after.json   (default .bench_build/bench.json)
#   make bench-compare A=before.json B=after.json
OUT ?= .bench_build/bench.json
bench:
	sh bench/run.sh -all -repeat 3 -out $(OUT)

bench-compare:
	sh bench/run.sh -compare $(A) $(B)
