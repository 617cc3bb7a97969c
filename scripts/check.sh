#!/usr/bin/env bash
# check.sh — the full verification gate for this repo, used by `make check`.
#
#   1. gofmt (no unformatted files) and go vet over everything
#   2. full build
#   3. race detector over the hot-path packages: the scan leg (lock-free
#      snapshot lookup, sharded stats), the attack
#      month / telescope leg (sharded flow tables, striped event log,
#      parallel darknet generation), the report pass's two parallel
#      layers (the universe's exposure index with the crawls that filter it,
#      the chunked ClassifyAll) and the protocol servers (the MQTT broker
#      fans publishes out across sessions under one mutex) — the
#      parallel-vs-sequential equivalence tests run under the detector here
#   4. the observability gate: the zero-perturbation equivalence tests
#      (instrumented runs — registry, tracer, progress, day/unit hooks and
#      the flight recorder — byte-identical to bare runs) under the race
#      detector; includes the trace determinism tests (identical JSONL
#      across worker counts), the /metrics?format=prom vs manifest-derived
#      prom byte-parity test, and the tsdb rollup-reconciliation and COW
#      concurrency tests; then the service gate — the serve daemon's
#      snapshot determinism across worker counts and kill/resume, the
#      aggregates pinned to golden digests across two month reseeds
#      (TestServeGoldenDigest), a mid-month kill whose checkpoint must hold
#      leg positions and aggregates only (no honeypot log), the
#      concurrent-scrape zero-perturbation test, the differential test
#      between the daemon's folds and the batch report
#      (TestFoldsMatchReport: a quick world's scan, month and darknet day
#      folded into Aggregates must reproduce Table 4/5, Figure 8, the
#      telescope volume and the Section 5.3 join), and the time-series
#      observatory gates (sim-stream byte-identity across worker counts,
#      tsdb-on vs tsdb-off zero perturbation, checkpointed history matching
#      the embedded state), under the race detector — these run in --fast
#      mode too, so the observatory can never perturb the simulation in
#      the inner loop either
#   5. the chaos gate: the fault-model equivalence tests (zero-fault noop,
#      cross-worker determinism, ±2% calibrated classification drift) under
#      the race detector, plus scripts/fuzz_smoke.sh: every Fuzz target in
#      the module, discovered with `go test -list '^Fuzz'` (the protocol
#      parsers, the stream servers' chunking invariance, the scanner's grab
#      modules, the FlowTuple codec, the classifier and fingerprint filter,
#      the -faults spec and /api/timeseries query parsers, the
#      checkpoint container loader and the checkpoint log's frame
#      decoder), seed corpus + 10 fresh inputs each —
#      skipped with --fast
#   6. the crash gate: checkpoint container and log tests (round trip,
#      corruption, a log torn at every byte of an uncommitted frame, a short
#      or flipped log refused), the run harness's own tests (signal ladder,
#      commit chain, manifest epilogue), the write-amplification gate, and
#      the kill-and-resume sweep under the race detector — each of the five
#      binaries (scan, telescope, honeypots, report, serve) killed at every
#      registered crashpoint, including between a batch leg's log append
#      and its checkpoint, resumed, and byte-compared against an
#      uninterrupted golden run; --fast sweeps only each binary's mid-run
#      commit site (go test -short)
#   7. the serve smoke (scripts/serve_smoke.sh): openhire-serve end to end —
#      kill/resume byte-identity of the aggregates and time-series
#      artifacts and of the hourly capture files across a kill inside the
#      hour-file group, no staging file left in telescope/, the serve.ckpt
#      the resumed run leaves listing only its expected members (no honeypot
#      events, no scan results) under openhire-inspect checkpoint, a binary
#      hour file parsed by openhire-telescope -parse, the live query API
#      (including /api/timeseries) answering
#      mid-run, openhire-inspect timeline in both file and live-URL modes,
#      and a graceful SIGINT shutdown; then the
#      inspect smoke: build openhire-scan + openhire-inspect, run the
#      scan leg twice with the same seed (traced) plus once bare, and
#      require empty manifest/trace self-diffs, byte-identical result
#      artifacts with tracing on and off, a working summarize/prom, and
#      a re-analysis of the saved results.jsonl with -in whose honeypot,
#      misconfiguration and country tables equal the scanning run's
#   8. the tier-1 test suite (ROADMAP.md: `go build ./... && go test ./...`)
#   9. the measurement spine's own tests (bench/ is a module of its own, so
#      step 8 does not see it): every BENCHMARK.json workload at toy size,
#      which is what notices a core API change that breaks the harness —
#      runs in --fast mode too
#
# Usage: check.sh [--fast]
#   --fast skips the fuzz smokes (step 5's second half) and shrinks the crash
#   sweep to the -short site subset.
set -euo pipefail
cd "$(dirname "$0")/.."

FAST=0
if [ "${1:-}" = "--fast" ]; then
	FAST=1
fi

echo "==> gofmt -l (all tracked Go files)"
unformatted=$(gofmt -l . | grep -v '^\.git/' || true)
if [ -n "$unformatted" ]; then
	echo "gofmt: the following files are not gofmt-clean:" >&2
	echo "$unformatted" >&2
	exit 1
fi

echo "==> go vet ./..."
go vet ./...

echo "==> go build ./..."
go build ./...

echo "==> go test -race (hot-path packages)"
go test -race ./internal/netsim/... ./internal/core/scan/... \
	./internal/telescope/... ./internal/attack/... ./internal/honeypot/... \
	./internal/iot/ ./internal/datasets/ ./internal/core/classify/ \
	./internal/protocols/...

echo "==> observability gate: zero-perturbation + trace determinism under -race"
go test -race ./internal/obs/... ./internal/expr/

echo "==> service gate: serve aggregation determinism, golden digests + concurrent scrape under -race"
go test -race ./internal/serve/

echo "==> chaos gate: fault-model equivalence under -race"
go test -race -run 'TestChaos|TestBackoff|TestCancelMidSegmentResumes' \
	./internal/core/scan/ ./internal/core/classify/
go test -race ./internal/netsim/faults/

if [ "$FAST" = "0" ]; then
	echo "==> chaos gate: fuzz smoke (every Fuzz target, 10 fresh inputs each)"
	./scripts/fuzz_smoke.sh
else
	echo "==> chaos gate: parser fuzz smoke skipped (--fast)"
fi

if [ "$FAST" = "0" ]; then
	echo "==> crash gate: kill-and-resume sweep over every crashpoint under -race"
	go test -race -count=1 ./internal/checkpoint/... ./internal/cli/
else
	echo "==> crash gate: kill-and-resume sweep, commit sites only (--fast)"
	go test -race -count=1 -short ./internal/checkpoint/... ./internal/cli/
fi

echo "==> serve smoke: daemon kill/resume byte-identity, log-free checkpoint + live API + graceful SIGINT"
./scripts/serve_smoke.sh

echo "==> inspect smoke: fixed-seed run self-diffs clean, tracing is zero-perturbation"
SMOKE=$(mktemp -d)
trap 'rm -rf "$SMOKE"' EXIT
go build -o "$SMOKE/" ./cmd/openhire-scan ./cmd/openhire-inspect
# Flag values are recorded verbatim in the manifest config section, so every
# run uses relative artifact paths from its own directory — identical flags,
# identical manifests.
SCAN_FLAGS="-seed 7 -prefix 100.0.0.0/20 -boost 8 -workers 19 -faults calibrated -out results.jsonl"
mkdir "$SMOKE/a" "$SMOKE/b" "$SMOKE/bare"
(cd "$SMOKE/a" && "$SMOKE/openhire-scan" $SCAN_FLAGS -trace t.jsonl -trace-sample 4 -manifest m.json >stdout.txt 2>/dev/null)
(cd "$SMOKE/b" && "$SMOKE/openhire-scan" $SCAN_FLAGS -trace t.jsonl -trace-sample 4 -manifest m.json >stdout.txt 2>/dev/null)
(cd "$SMOKE/bare" && "$SMOKE/openhire-scan" $SCAN_FLAGS >stdout.txt 2>/dev/null)
# Two same-seed runs: manifests and traces must self-diff empty.
"$SMOKE/openhire-inspect" diff "$SMOKE/a/m.json" "$SMOKE/b/m.json"
"$SMOKE/openhire-inspect" diff "$SMOKE/a/t.jsonl" "$SMOKE/b/t.jsonl"
# Zero perturbation: the result artifact is byte-identical with tracing on
# and off, and stdout matches once wall-clock noise is stripped — the
# duration tokens themselves plus table padding/rules, whose widths track
# the longest duration string in the Elapsed column.
cmp "$SMOKE/a/results.jsonl" "$SMOKE/bare/results.jsonl"
strip_wall() {
	sed -E 's/[0-9]+(\.[0-9]+)?(ns|µs|ms|s)\b//g; s/-+/-/g; s/ +/ /g; s/ +$//' "$1"
}
if ! diff <(strip_wall "$SMOKE/a/stdout.txt") <(strip_wall "$SMOKE/bare/stdout.txt") >/dev/null; then
	echo "inspect smoke: traced stdout differs from bare run beyond wall-clock" >&2
	diff <(strip_wall "$SMOKE/a/stdout.txt") <(strip_wall "$SMOKE/bare/stdout.txt") >&2 || true
	exit 1
fi
# The analysis side must run clean on its own artifacts.
"$SMOKE/openhire-inspect" summarize "$SMOKE/a/t.jsonl" >/dev/null
"$SMOKE/openhire-inspect" summarize "$SMOKE/a/m.json" >/dev/null
"$SMOKE/openhire-inspect" prom "$SMOKE/a/m.json" >/dev/null
# The saved results re-analysed with -in must print the scanning run's
# honeypot, misconfiguration and country tables.
(cd "$SMOKE/bare" && "$SMOKE/openhire-scan" -seed 7 -in results.jsonl >reloaded.txt 2>/dev/null)
analysis() {
	sed -n '/^Detected honeypots\|^Misconfigured devices/,$p' "$1"
}
if [ -z "$(analysis "$SMOKE/bare/stdout.txt")" ] ||
	! diff <(analysis "$SMOKE/bare/stdout.txt") <(analysis "$SMOKE/bare/reloaded.txt") >&2; then
	echo "inspect smoke: -in re-analysis of results.jsonl differs from the scanning run" >&2
	exit 1
fi
# And a seeded difference must be caught (exit 1).
(cd "$SMOKE/b" && "$SMOKE/openhire-scan" -seed 8 -prefix 100.0.0.0/20 -boost 8 -workers 19 -faults calibrated -out results.jsonl -trace t2.jsonl -trace-sample 4 -manifest m2.json >/dev/null 2>&1)
if "$SMOKE/openhire-inspect" diff "$SMOKE/a/m.json" "$SMOKE/b/m2.json" >/dev/null; then
	echo "inspect smoke: diff failed to flag a different-seed manifest" >&2
	exit 1
fi

echo "==> go test ./... (tier-1 gate)"
go test ./...

echo "==> bench module: go test ./... in bench/ (measurement spine compiles and runs at toy size)"
(cd bench && go test ./...)

echo "OK"
