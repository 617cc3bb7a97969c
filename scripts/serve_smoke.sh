#!/usr/bin/env bash
# serve_smoke.sh — end-to-end smoke for the continuous-measurement daemon,
# used by `make serve-smoke` and scripts/check.sh.
#
#   1. golden: an uninterrupted 3-cycle run writes its aggregates and
#      time-series artifacts
#   2. kill/resume: a checkpointed run hard-killed at the registered
#      serve.cycle.commit crashpoint (second hit, exit 87), a resumed run
#      killed again inside cycle 3's hour-file group (atomic.staged, fifth
#      hit: four files renamed, twenty staged), then a resumed run (different
#      worker count) continuing to the same 3-cycle target — the final
#      aggregates, the sim time-series history AND every hourly capture file
#      must be byte-identical to golden, telescope/ must hold no hidden
#      staging file (the last run stages over the killed run's orphans), and
#      openhire-inspect checkpoint must list exactly the serve.ckpt members
#      it leaves — leg positions, aggregates, tsdb and bookkeeping: no
#      honeypot log (drained and folded each cycle, never checkpointed) and
#      no scan results (folded as their segments drained)
#   3. files readable: openhire-telescope -parse must read the largest binary
#      hour file, and openhire-inspect timeline must render the resumed run's
#      serve-tsdb.ckpt with per-cycle leg attribution
#   4. live API: a -cycles 0 daemon with a listener; once a cycle commits,
#      /api/status and /api/exposure must answer 200 with a coherent
#      watermark, /api/timeseries must serve the catalog and a trend range
#      (JSON + prom text), and openhire-inspect timeline must render the
#      live URL; SIGINT must stop it at the cycle boundary, flush the
#      artifacts, and exit 0
set -euo pipefail
cd "$(dirname "$0")/.."

SMOKE=$(mktemp -d)
DAEMON_PID=""
cleanup() {
	[ -n "$DAEMON_PID" ] && kill -9 "$DAEMON_PID" 2>/dev/null || true
	rm -rf "$SMOKE"
}
trap cleanup EXIT

go build -o "$SMOKE/" ./cmd/openhire-serve ./cmd/openhire-inspect ./cmd/openhire-telescope
FLAGS="-seed 11 -prefix 100.0.0.0/24 -boost 16 -cycles 3 -segments-per-cycle 2 -segment-targets 64 -intensity 0.002 -scale 0.0002"
mkdir "$SMOKE/golden" "$SMOKE/resume" "$SMOKE/live"

echo "  golden 3-cycle run"
(cd "$SMOKE/golden" && "$SMOKE/openhire-serve" $FLAGS -workers 9 -telescope-dir telescope -out aggregates.json -tsdb-out timeseries.json >/dev/null 2>&1)

echo "  kill/resume byte-identity (crashpoint kills at cycle-2 commit and inside cycle 3's hour-file group, resumed with a different worker count)"
# killed_run SPEC [FLAG...]: one checkpointed run armed with SPEC; it must die there.
killed_run() {
	local spec=$1 rc=0
	shift
	(cd "$SMOKE/resume" && OPENHIRE_CRASHPOINT=$spec \
		"$SMOKE/openhire-serve" $FLAGS -workers 9 -checkpoint ck -telescope-dir telescope "$@" >/dev/null 2>&1) || rc=$?
	if [ "$rc" != "87" ]; then
		echo "serve smoke: run armed with $spec exited $rc, want 87" >&2
		exit 1
	fi
}
killed_run serve.cycle.commit@2
killed_run atomic.staged@5 -resume
if ! ls -A "$SMOKE/resume/telescope" | grep -q '^\.'; then
	echo "serve smoke: the kill inside the hour-file group left no staging file — the check below would prove nothing" >&2
	exit 1
fi
(cd "$SMOKE/resume" && "$SMOKE/openhire-serve" $FLAGS -workers 4 -checkpoint ck -telescope-dir telescope -resume -out aggregates.json -tsdb-out timeseries.json >/dev/null 2>&1)
cmp "$SMOKE/golden/aggregates.json" "$SMOKE/resume/aggregates.json"
cmp "$SMOKE/golden/timeseries.json" "$SMOKE/resume/timeseries.json"
diff -r "$SMOKE/golden/telescope" "$SMOKE/resume/telescope"
if ls -A "$SMOKE/resume/telescope" | grep '^\.' >&2; then
	echo "serve smoke: telescope/ holds staging files after kill + resume — orphans are accumulating" >&2
	exit 1
fi
"$SMOKE/openhire-inspect" checkpoint "$SMOKE/resume/ck/serve.ckpt" >"$SMOKE/checkpoint.txt"
MEMBERS=$(sed -n '/^Payload bytes by member/,$p' "$SMOKE/checkpoint.txt" | awk 'NR > 3 { printf "%s ", $1 }')
if [ "$MEMBERS" != "cycle campaign scan agg tsdb telescope_files checkpoints " ]; then
	echo "serve smoke: ck/serve.ckpt members are '$MEMBERS' — want leg positions, aggregates, tsdb and bookkeeping only" >&2
	exit 1
fi
if grep -q '"events":\|"Results": [^n]' "$SMOKE/checkpoint.txt"; then
	echo "serve smoke: ck/serve.ckpt carries honeypot events or scan results — they are folded, never checkpointed" >&2
	exit 1
fi

echo "  parse a binary hour file; inspect timeline from the resumed run's tsdb checkpoint"
HOUR=$(ls -S "$SMOKE"/resume/telescope/*.ft | head -1)
"$SMOKE/openhire-telescope" -parse "$HOUR" >"$SMOKE/parse.txt"
grep -q "^parsed [1-9][0-9,]* records from $HOUR" "$SMOKE/parse.txt"
"$SMOKE/openhire-inspect" timeline "$SMOKE/resume/ck/serve-tsdb.ckpt" >"$SMOKE/timeline-file.txt"
grep -q "per-cycle wall attribution" "$SMOKE/timeline-file.txt"
grep -q "serve.trend.attack_events" "$SMOKE/timeline-file.txt"

echo "  live query API + graceful SIGINT"
(cd "$SMOKE/live" && exec "$SMOKE/openhire-serve" ${FLAGS/-cycles 3/-cycles 0} -workers 5 \
	-addr 127.0.0.1:0 -out aggregates.json -manifest manifest.json >stdout.txt 2>stderr.txt) &
DAEMON_PID=$!
ADDR=""
for _ in $(seq 1 100); do
	ADDR=$(sed -n 's#^query API on http://\(.*\)/$#\1#p' "$SMOKE/live/stderr.txt" 2>/dev/null | head -1)
	[ -n "$ADDR" ] && break
	sleep 0.1
done
if [ -z "$ADDR" ]; then
	echo "serve smoke: daemon never announced its API address" >&2
	cat "$SMOKE/live/stderr.txt" >&2
	exit 1
fi
for _ in $(seq 1 100); do
	grep -q "cycle 1 committed" "$SMOKE/live/stderr.txt" && break
	sleep 0.1
done
STATUS=$(curl -fsS "http://$ADDR/api/status")
echo "$STATUS" | grep -q '"cycle": [1-9]' || {
	echo "serve smoke: /api/status watermark has no committed cycle: $STATUS" >&2
	exit 1
}
curl -fsS "http://$ADDR/api/exposure" | grep -q '"watermark"'
curl -fsS "http://$ADDR/api/trends" >/dev/null
curl -fsS "http://$ADDR/api/correlate" | grep -q '"misconfigured"'
# Save bodies before grepping: grep -q closes the pipe at first match, which
# curl -f reports as a write failure on larger responses.
curl -fsS "http://$ADDR/api/timeseries" -o "$SMOKE/catalog.json"
grep -q '"stream": "sim"' "$SMOKE/catalog.json"
curl -fsS "http://$ADDR/api/timeseries?metric=serve.trend.attack_events" -o "$SMOKE/trend.json"
grep -q '"points"' "$SMOKE/trend.json"
curl -fsS "http://$ADDR/api/timeseries?metric=serve.trend.attack_events&format=prom" -o "$SMOKE/trend.prom"
grep -q '^# TYPE serve_trend_attack_events gauge' "$SMOKE/trend.prom"
"$SMOKE/openhire-inspect" timeline "http://$ADDR" >"$SMOKE/timeline-live.txt"
grep -q "per-cycle wall attribution" "$SMOKE/timeline-live.txt"
kill -INT "$DAEMON_PID"
WAIT_RC=0
wait "$DAEMON_PID" || WAIT_RC=$?
DAEMON_PID=""
if [ "$WAIT_RC" != "0" ]; then
	echo "serve smoke: daemon exited $WAIT_RC after SIGINT" >&2
	cat "$SMOKE/live/stderr.txt" >&2
	exit 1
fi
grep -q "stopped after" "$SMOKE/live/stdout.txt"
[ -s "$SMOKE/live/aggregates.json" ] && [ -s "$SMOKE/live/manifest.json" ]

echo "  serve smoke OK"
