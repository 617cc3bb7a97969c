package scan

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"sort"
	"testing"

	"openhire/internal/checkpoint/wire"
	"openhire/internal/iot"
	"openhire/internal/netsim"
	"openhire/internal/netsim/faults"
)

// The golden digests were recorded from the concurrent all-modules driver
// (16 workers) at the last commit that still had it, before the five drivers
// were collapsed onto Scanner.Run. Any change to what the scan leg observes — result content,
// outcome classification, breaker decisions, blocklist accounting — moves
// them and must be a deliberate, reviewed decision.
const (
	goldenZeroFault  = "dc1548fe91bdcd8d96ce0488a6e94715f97e6c3dc8604b8aba3dc65f79739284"
	goldenCalibrated = "2876d8593b625e6b3275e751cbe2ba2a5eb6b4e134ba428d2bf99f29565161d0"
	// Calibrated blackholes 1% of /24s and none of this /20's sixteen, so a
	// third profile raises the fraction to 25% to put the circuit breaker
	// (and its per-/24 memory carried across segments) under the pin.
	goldenBlackholed = "0ee4e9efeff73a4ce7d69c13e7b640447bf218702ec818b4e39a338915e1e69c"
)

// goldenModules is the module set the digest covers: the paper's six plus
// the two future-work protocols.
func goldenModules() []ProbeModule {
	return append(AllModules(), ExtendedModules()...)
}

// goldenDigest hashes the canonical result text plus every module's
// deterministic counters, in module order.
func goldenDigest(results map[iot.Protocol][]*Result, stats map[iot.Protocol]Stats) string {
	h := sha256.New()
	_, _ = io.WriteString(h, digestResults(results))
	for _, m := range goldenModules() {
		counters := stats[m.Protocol()].Counters()
		names := make([]string, 0, len(counters))
		for name := range counters {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Fprintf(h, "%s.%s=%d\n", m.Protocol(), name, counters[name])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// goldenConfig is the pinned scan: a boosted /20 at a fixed seed, with a low
// breaker threshold so the circuit breaker trips early under the blackholed
// profile. Every call builds a fresh world.
func goldenConfig(t testing.TB, profile faults.Profile, workers int) Config {
	n, prefix := chaosWorld(t, "50.0.0.0/20", 50, profile)
	return Config{
		Network:          n,
		Source:           netsim.MustParseIPv4("130.226.0.1"),
		Prefix:           prefix,
		Seed:             5,
		Workers:          workers,
		BreakerThreshold: 3,
	}
}

// TestScanGoldenDigest pins the scan leg to the digests recorded from the
// deleted parallel driver: the one driver must reproduce them for every worker
// count, with and without a commit hook, at cadences far smaller than a
// module and larger than the whole walk.
func TestScanGoldenDigest(t *testing.T) {
	blackholed := faults.Calibrated()
	blackholed.BlackholeFrac = 0.25
	for _, g := range []struct {
		name    string
		profile faults.Profile
		want    string
	}{
		{"zero", faults.Zero(), goldenZeroFault},
		{"calibrated", faults.Calibrated(), goldenCalibrated},
		{"blackholed", blackholed, goldenBlackholed},
	} {
		for _, workers := range []int{1, 7, 32} {
			// Cadence 0 is the plain run: no hook, one segment per module.
			for _, cadence := range []int{0, 64, 4096, 1 << 20} {
				var onCommit func(*SegmentedState) error
				if cadence > 0 {
					onCommit = func(*SegmentedState) error { return nil }
				}
				results, stats, err := NewScanner(goldenConfig(t, g.profile, workers)).Run(
					context.Background(), goldenModules(), nil, cadence, onCommit)
				if err != nil {
					t.Fatalf("%s workers=%d cadence=%d: %v", g.name, workers, cadence, err)
				}
				if got := goldenDigest(results, stats); got != g.want {
					t.Fatalf("%s workers=%d cadence=%d: scan diverged from golden:\n got %s\nwant %s",
						g.name, workers, cadence, got, g.want)
				}
			}
		}
	}
}

// TestResumeFromPositionAndLog resumes the way a batch checkpoint does: from
// a position that went through AppendState and ReadState — the walk cursor,
// breaker memory and stats, no results — plus the results each committed
// segment handed OnSegment, put back with AddResults. The resumed scan must
// reproduce the uninterrupted golden digest.
func TestResumeFromPositionAndLog(t *testing.T) {
	const kill = 10
	stop := errors.New("stop")
	var saved []byte
	logged := make(map[iot.Protocol][]*Result)
	cfg := goldenConfig(t, faults.Calibrated(), 7)
	cfg.OnSegment = func(p iot.Protocol, _ int, rs []*Result) { logged[p] = append(logged[p], rs...) }
	commits := 0
	_, _, err := NewScanner(cfg).Run(
		context.Background(), goldenModules(), nil, 64, func(st *SegmentedState) error {
			if commits++; commits < kill {
				return nil
			}
			saved = AppendState(nil, st)
			return stop
		})
	if !errors.Is(err, stop) {
		t.Fatalf("kill at commit %d: err = %v", kill, err)
	}
	r := wire.NewReader(saved)
	resume := ReadState(r)
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	for _, ms := range resume.Modules {
		if ms.Results != nil {
			t.Fatalf("position carries %d %s results", len(ms.Results), ms.Protocol)
		}
	}
	resume.AddResults(logged)
	results, stats, err := NewScanner(goldenConfig(t, faults.Calibrated(), 7)).Run(
		context.Background(), goldenModules(), resume, 64, func(*SegmentedState) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if got := goldenDigest(results, stats); got != goldenCalibrated {
		t.Fatalf("resume from a position and its logged results diverged from golden:\n got %s\nwant %s",
			got, goldenCalibrated)
	}
}
