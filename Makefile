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
# detector, then a 10-iteration fuzz smoke over the Telnet/MQTT parsers, the
# CoAP server and the SSDP M-SEARCH parser, the stream servers' chunking
# invariance, the scanner's eight grab modules, the FlowTuple codec, and the
# two analyses that read attacker-controlled banners (the classifier and the
# honeypot fingerprint filter).
chaos:
	go test -race -run 'TestChaos|TestBackoff|TestScanCancel' \
		./internal/core/scan/ ./internal/core/classify/
	go test -race ./internal/netsim/faults/
	for target in FuzzSplitStream FuzzEscapeRoundTrip; do \
		go test -run "^$$target\$$" -fuzz "^$$target\$$" -fuzztime 10x ./internal/protocols/telnet/ || exit 1; \
	done
	for target in FuzzReadPacket FuzzTopicMatches; do \
		go test -run "^$$target\$$" -fuzz "^$$target\$$" -fuzztime 10x ./internal/protocols/mqtt/ || exit 1; \
	done
	go test -run '^FuzzHandleDatagram$$' -fuzz '^FuzzHandleDatagram$$' -fuzztime 10x ./internal/protocols/coap/
	go test -run '^FuzzParseMSearch$$' -fuzz '^FuzzParseMSearch$$' -fuzztime 10x ./internal/protocols/upnp/
	go test -run '^FuzzStepperChunking$$' -fuzz '^FuzzStepperChunking$$' -fuzztime 10x ./internal/honeypot/
	go test -run '^FuzzGrab$$' -fuzz '^FuzzGrab$$' -fuzztime 10x ./internal/core/scan/
	for target in FuzzReadBinary FuzzFlowCSV; do \
		go test -run "^$$target\$$" -fuzz "^$$target\$$" -fuzztime 10x ./internal/telescope/ || exit 1; \
	done
	go test -run '^FuzzClassify$$' -fuzz '^FuzzClassify$$' -fuzztime 10x ./internal/core/classify/
	go test -run '^FuzzMatchResult$$' -fuzz '^FuzzMatchResult$$' -fuzztime 10x ./internal/core/fingerprint/

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
