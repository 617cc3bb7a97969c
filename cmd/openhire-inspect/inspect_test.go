package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"openhire/internal/obs"
)

// testManifest is a small manifest with one value in every section diff
// compares.
func testManifest() *obs.Manifest {
	m := obs.NewManifest("openhire-scan", 7)
	m.Config = map[string]string{"prefix": "100.0.0.0/20", "workers": "19"}
	m.Phases = []obs.SpanRecord{
		{Name: "scan", SimNS: 1_500_000_000, WallNS: 91_000_000},
		{Name: "classify", SimNS: 0, WallNS: 4_000_000},
	}
	m.Counters = map[string]uint64{"scan.probed": 24576, "scan.telnet.responded": 211}
	m.Gauges = map[string]float64{"scan.useful_ratio": 0.12}
	m.Outputs = map[string]string{"results.jsonl": "sha256:00ff"}
	m.Checkpoints = []obs.CheckpointRecord{{Name: "scan.seg0001", Bytes: 512, Digest: "sha256:ab"}}
	return m
}

func TestDiffManifests(t *testing.T) {
	for _, c := range []struct {
		name string
		edit func(*obs.Manifest)
		want int
	}{
		{"identical", func(*obs.Manifest) {}, 0},
		{"one counter", func(m *obs.Manifest) { m.Counters["scan.probed"]++ }, 1},
		{"counter on one side", func(m *obs.Manifest) { m.Counters["scan.blocked"] = 3 }, 1},
		{"wall clock", func(m *obs.Manifest) {
			m.Phases[0].WallNS *= 3
			m.Phases[1].WallNS = 1
		}, 0},
		{"simulated time", func(m *obs.Manifest) { m.Phases[0].SimNS++ }, 1},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			a, b := filepath.Join(dir, "a.json"), filepath.Join(dir, "b.json")
			if err := testManifest().WriteFile(a); err != nil {
				t.Fatal(err)
			}
			mb := testManifest()
			c.edit(mb)
			if err := mb.WriteFile(b); err != nil {
				t.Fatal(err)
			}
			var out bytes.Buffer
			n, err := diff(&out, a, b)
			if err != nil {
				t.Fatal(err)
			}
			if n != c.want {
				t.Fatalf("%d differences, want %d:\n%s", n, c.want, out.String())
			}
			if n == 0 && !strings.HasPrefix(out.String(), "no differences") {
				t.Fatalf("no differences reported as:\n%s", out.String())
			}
		})
	}
}

// goldenTrace is a small fixed flight-recorder artifact: two Telnet targets
// (one recovered on retransmit), an MQTT answer, a breaker skip, a honeypot
// session and a telescope flow.
const goldenTrace = `{"kind":"trace.meta","binary":"openhire-scan","seed":7,"sample_one_in":4,"events":12}
{"kind":"probe.sent","protocol":"mqtt","ip":"100.0.0.9","port":1883,"sim_ns":3000000}
{"kind":"probe.answered","protocol":"mqtt","ip":"100.0.0.9","port":1883}
{"kind":"probe.sent","protocol":"telnet","ip":"100.0.1.4","port":23,"sim_ns":2000000}
{"kind":"probe.timeout","protocol":"telnet","ip":"100.0.1.4","port":23,"sim_ns":500000000}
{"kind":"probe.retransmit","protocol":"telnet","ip":"100.0.1.4","port":23,"sim_ns":120000000}
{"kind":"probe.sent","protocol":"telnet","ip":"100.0.1.4","port":23,"attempt":1,"sim_ns":4000000}
{"kind":"probe.answered","protocol":"telnet","ip":"100.0.1.4","port":23,"attempt":1}
{"kind":"probe.sent","protocol":"telnet","ip":"100.0.2.8","port":23,"sim_ns":1000000}
{"kind":"probe.negative","protocol":"telnet","ip":"100.0.2.8","port":23}
{"kind":"breaker.skip","protocol":"telnet","ip":"100.0.3.77","port":23}
{"kind":"session.open","protocol":"ssh","ip":"45.9.0.1","port":22,"sim_ns":3600000000000,"count":6,"peer":"cowrie"}
{"kind":"flow.ingest","protocol":"telnet","ip":"45.9.0.1","port":23,"count":40}
`

const goldenSummary = `trace t.jsonl: binary openhire-scan, seed 7, sampling 1-in-4, 12 events

Events by kind
Kind              Count
----------------  -----
breaker.skip      1
flow.ingest       1
probe.answered    2
probe.negative    1
probe.retransmit  1
probe.sent        4
probe.timeout     1
session.open      1

Probe outcomes by protocol (sampled targets)
Protocol  Sent  Answered  Timeout  Reset  Partial  Negative  Abandoned
--------  ----  --------  -------  -----  -------  --------  ---------
mqtt      1     1         0        0      0        0         0
telnet    3     1         1        0      0        1         0

Simulated probe latency by protocol
Protocol  Samples  p50  p90  p99  Max
--------  -------  ---  ---  ---  ---
mqtt      1        3ms  3ms  3ms  3ms
telnet    3        2ms  4ms  4ms  4ms

Retransmit/backoff schedule
After attempt  Retransmits  Min backoff  Mean backoff  Max backoff
-------------  -----------  -----------  ------------  -----------
0              1            120ms        120ms         120ms

Circuit-breaker skips by /24
Prefix        Skips  Protocols
------------  -----  ---------
100.0.3.0/24  1      telnet

Host flaps: 1 sampled targets timed out at least once; 1 recovered on retransmit
  telnet 100.0.1.4:23 answered on attempt 1

Top talkers (sampled addresses)
Address     Events  Carried count
----------  ------  -------------
100.0.1.4   5       0
45.9.0.1    2       46
100.0.0.9   2       0
100.0.2.8   2       0
100.0.3.77  1       0
`

// TestSummarizeTraceGolden pins the text summarize renders for a fixed
// trace, so a renderer change shows up as a test diff.
func TestSummarizeTraceGolden(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.jsonl")
	if err := os.WriteFile(path, []byte(goldenTrace), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := summarize(&out, path); err != nil {
		t.Fatal(err)
	}
	// Table cells are padded to the column width; the golden keeps no
	// trailing blanks.
	got := strings.ReplaceAll(out.String(), path, "t.jsonl")
	got = regexp.MustCompile(`(?m) +$`).ReplaceAllString(got, "")
	if got != goldenSummary {
		t.Fatalf("summary diverged from golden:\n--- got\n%s--- want\n%s", got, goldenSummary)
	}
}
