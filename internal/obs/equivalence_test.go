package obs_test

// The zero-perturbation gate: an instrumented run must be byte-identical to
// an uninstrumented one. These tests run the scan leg twice over identical
// worlds — once bare, once with the full observability stack (registry,
// tracer, progress hook) attached — and require identical output digests and
// stats. They are wired into `make check` under the race detector, so the
// registry's cross-goroutine feed-hook traffic is also exercised there.

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"testing"

	"openhire/internal/core/scan"
	"openhire/internal/iot"
	"openhire/internal/netsim"
	"openhire/internal/obs"
)

// digestScan serializes a result map deterministically: protocols sorted,
// per-protocol slices already sorted by (IP, Port), every field included.
func digestScan(results map[iot.Protocol][]*scan.Result) string {
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

// runScanLeg executes a six-protocol parallel scan over a fresh world. With
// instrument set, the full observability stack rides along: a progress hook
// counting fed targets into a registry, a span over the phase, and the
// per-protocol stat counters folded in afterwards.
func runScanLeg(t *testing.T, instrument bool) (string, map[iot.Protocol]scan.Stats, *obs.Registry) {
	t.Helper()
	prefix := netsim.MustParsePrefix("50.0.0.0/18")
	u := iot.NewUniverse(iot.UniverseConfig{Seed: 77, Prefix: prefix, DensityBoost: 200})
	clock := netsim.NewSimClock(netsim.ExperimentStart)
	n := netsim.NewNetwork(clock)
	n.AddProvider(prefix, u)
	cfg := scan.Config{
		Network:   n,
		Source:    netsim.MustParseIPv4("130.226.0.1"),
		Prefix:    prefix,
		Seed:      5,
		Workers:   16,
		Blocklist: netsim.NewPrefixSet(netsim.MustParsePrefix("50.0.3.0/24")),
	}
	var reg *obs.Registry
	var tracer *obs.Tracer
	if instrument {
		reg = obs.NewRegistry()
		tracer = obs.NewTracer(clock)
		cfg.Progress = func(targets uint64) { reg.Add("scan.targets_fed", targets) }
	}
	span := tracer.Start("scan")
	results, stats, err := scan.NewScanner(cfg).Run(context.Background(), scan.AllModules(), nil, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	span.End()
	if instrument {
		for proto, st := range stats {
			reg.AddAll("scan."+string(proto), st.Counters())
		}
	}
	return digestScan(results), stats, reg
}

// TestScanInstrumentationZeroPerturbation is the tentpole guarantee for the
// scan leg: attaching the registry, tracer, and progress hook must not change
// a single output byte or stat counter relative to a bare run.
func TestScanInstrumentationZeroPerturbation(t *testing.T) {
	bareDigest, bareStats, _ := runScanLeg(t, false)
	obsDigest, obsStats, reg := runScanLeg(t, true)
	if bareDigest != obsDigest {
		t.Fatalf("instrumented scan output differs from bare run (%d vs %d digest bytes)",
			len(bareDigest), len(obsDigest))
	}
	for proto, bare := range bareStats {
		inst := obsStats[proto]
		bare.Elapsed, inst.Elapsed = 0, 0 // wall-clock, excluded by design
		if bare != inst {
			t.Fatalf("%s stats differ:\nbare:         %+v\ninstrumented: %+v", proto, bare, inst)
		}
	}
	// The registry's view must reconcile with the scanner's own accounting:
	// the feed hook saw exactly the non-blocked targets of every module, and
	// AddAll landed each stat under its prefixed name.
	var wantFed uint64
	for proto, st := range obsStats {
		wantFed += (st.Probed - st.Retransmits) + st.BreakerSkipped
		if got := reg.Counter("scan." + string(proto) + ".probed"); got != st.Probed {
			t.Fatalf("%s: registry probed %d, stats say %d", proto, got, st.Probed)
		}
		if got := reg.Counter("scan." + string(proto) + ".blocked"); got != st.Blocked {
			t.Fatalf("%s: registry blocked %d, stats say %d", proto, got, st.Blocked)
		}
	}
	if got := reg.Counter("scan.targets_fed"); got != wantFed {
		t.Fatalf("progress hook counted %d fed targets, stats reconcile to %d", got, wantFed)
	}
}
