# Developer entry points. `make check` is the gate every PR must pass.

.PHONY: check check-fast build test race chaos crash serve-smoke bench-scan bench-telescope bench-campaign bench-serve

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
		./internal/obs/... ./internal/expr/ ./internal/serve/

# chaos runs just the fault-model gate: the equivalence tests (zero-fault
# noop, cross-worker determinism, ±2% calibrated drift) under the race
# detector, then a 10-iteration fuzz smoke over the Telnet/MQTT parsers and
# the stream servers' chunking invariance.
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
	go test -run '^FuzzStepperChunking$$' -fuzz '^FuzzStepperChunking$$' -fuzztime 10x ./internal/honeypot/

# crash runs the kill-and-resume gate: checkpoint container round-trip and
# corruption rejection, per-leg resume property tests, and the crashpoint
# sweep — each leg binary killed at every registered durable-state
# transition, resumed, and byte-compared against an uninterrupted golden
# run — all under the race detector.
crash:
	go test -race -count=1 ./internal/checkpoint/...

# serve-smoke drives openhire-serve end to end: golden run, kill/resume
# byte-identity of the aggregates and time-series artifacts, the inspect
# timeline renderer in file and live-URL modes, and a live daemon answering
# the query API (including /api/timeseries) mid-run before a graceful
# SIGINT shutdown.
serve-smoke:
	./scripts/serve_smoke.sh

# bench-scan reproduces the hot-path numbers recorded in BENCH_scan.json.
bench-scan:
	go test -run '^$$' -bench 'BenchmarkProbeThroughput' -benchtime 3x ./internal/core/scan/
	go test -run '^$$' -bench 'BenchmarkLookupHost|BenchmarkEmitNoObserver' ./internal/netsim/

# bench-telescope reproduces the leg-3 numbers recorded in BENCH_telescope.json.
bench-telescope:
	go test -run '^$$' -bench 'BenchmarkDarknetDay|BenchmarkCampaignReplay' -benchtime 20x ./internal/attack/
	go test -run '^$$' -bench 'BenchmarkTelescopeObserve|BenchmarkTelescopeRecord' ./internal/telescope/

# bench-campaign reproduces the conversation-engine numbers recorded in
# BENCH_campaign.json. Record the min over the repeated campaign runs — this
# is a single-core host with wall-clock variance. `make bench-campaign
# BENCHTIME=1x COUNT=1` is the one-iteration smoke scripts/check.sh --fast
# runs to keep the benchmarks compiling and executing.
BENCHTIME ?= 1s
COUNT ?= 6
bench-campaign:
	go test -run '^$$' -bench 'BenchmarkCampaignReplay' -benchmem \
		-benchtime $(BENCHTIME) -count $(COUNT) ./internal/attack/
	go test -run '^$$' -bench 'BenchmarkConversationEngine' -benchmem \
		-benchtime $(BENCHTIME) ./internal/netsim/

# bench-serve reproduces the observatory numbers recorded in BENCH_serve.json:
# the full daemon cycle (all three legs + tsdb sampling + checkpoint-free
# commit) and the time-series store's append/publish/query hot path.
bench-serve:
	go test -run '^$$' -bench 'BenchmarkServeCycle' -benchmem \
		-benchtime $(BENCHTIME) ./internal/serve/
	go test -run '^$$' -bench 'BenchmarkTSDBAppendQuery|BenchmarkViewWalk' -benchmem \
		-benchtime $(BENCHTIME) ./internal/obs/tsdb/
