package trace_test

// The flight recorder's zero-perturbation gate, mirroring the obs package's
// equivalence tests: a trace-enabled scan must produce byte-identical results
// and stats to a bare run. The recorder's OnProbe hook fires on every probe
// of the hot path (sampling happens inside the hook), so this is the
// strictest perturbation surface in the repo; `make check` runs it under the
// race detector.

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"testing"

	"openhire/internal/core/scan"
	"openhire/internal/iot"
	"openhire/internal/netsim"
	"openhire/internal/netsim/faults"
	"openhire/internal/obs/trace"
)

// digestResults serializes a result map deterministically, every field
// included, mirroring the obs equivalence digest.
func digestResults(results map[iot.Protocol][]*scan.Result) string {
	protos := make([]iot.Protocol, 0, len(results))
	for p := range results {
		protos = append(protos, p)
	}
	sort.Slice(protos, func(i, j int) bool { return protos[i] < protos[j] })
	var b strings.Builder
	for _, p := range protos {
		for _, r := range results[p] {
			fmt.Fprintf(&b, "%s|%v|%d|%q|%q|", p, r.IP, r.Port, r.Banner, r.Response)
			keys := make([]string, 0, len(r.Meta))
			for k := range r.Meta {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				fmt.Fprintf(&b, "%s=%q;", k, r.Meta[k])
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// runLeg executes the scan over a fresh faulty world, with or without the
// recorder attached.
func runLeg(t *testing.T, record bool) (string, map[iot.Protocol]scan.Stats, *trace.Recorder) {
	t.Helper()
	prefix := netsim.MustParsePrefix("50.0.0.0/19")
	u := iot.NewUniverse(iot.UniverseConfig{Seed: 77, Prefix: prefix, DensityBoost: 200})
	clock := netsim.NewSimClock(netsim.ExperimentStart)
	n := netsim.NewNetwork(clock)
	n.AddProvider(prefix, u)
	n.SetFaults(faults.New(faults.Calibrated()))
	src := netsim.MustParseIPv4("130.226.0.1")
	cfg := scan.Config{
		Network:   n,
		Source:    src,
		Prefix:    prefix,
		Seed:      5,
		Workers:   16,
		Blocklist: netsim.NewPrefixSet(netsim.MustParsePrefix("50.0.3.0/24")),
	}
	var rec *trace.Recorder
	if record {
		rec = trace.NewRecorder("test", 5, 4)
		cfg.OnProbe = trace.ScanProbeHook(rec, n, src)
	}
	results, stats, err := scan.NewScanner(cfg).Run(context.Background(), scan.AllModules(), nil, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	return digestResults(results), stats, rec
}

// TestTraceZeroPerturbation: attaching the flight recorder must not change a
// single output byte or stat counter relative to a bare run.
func TestTraceZeroPerturbation(t *testing.T) {
	bareDigest, bareStats, _ := runLeg(t, false)
	tracedDigest, tracedStats, rec := runLeg(t, true)
	if bareDigest != tracedDigest {
		t.Fatalf("traced scan output differs from bare run (%d vs %d digest bytes)",
			len(bareDigest), len(tracedDigest))
	}
	for proto, bare := range bareStats {
		traced := tracedStats[proto]
		bare.Elapsed, traced.Elapsed = 0, 0 // wall-clock, excluded by design
		if bare != traced {
			t.Fatalf("%s stats differ:\nbare:   %+v\ntraced: %+v", proto, bare, traced)
		}
	}
	// The recorder must reconcile with the scanner's own accounting: every
	// sampled transmission is a probe the stats counted, and every recorded
	// retransmit is one of the stats' retransmits.
	var sent, retrans uint64
	for _, ev := range rec.Events() {
		switch ev.Kind {
		case trace.KindProbeSent:
			sent++
		case trace.KindProbeRetransmit:
			retrans++
		}
	}
	var totProbed, totRetrans uint64
	for _, st := range tracedStats {
		totProbed += st.Probed
		totRetrans += st.Retransmits
	}
	if sent == 0 || sent > totProbed {
		t.Fatalf("recorded %d transmissions, stats probed %d", sent, totProbed)
	}
	if retrans > totRetrans {
		t.Fatalf("recorded %d retransmits, stats counted %d", retrans, totRetrans)
	}
}
