package iot_test

import (
	"context"
	"testing"

	"openhire/internal/iot"
	"openhire/internal/netsim"
	"openhire/internal/serve"
)

// TestServeNeverBuildsTheIndex fences the daemon's code paths away from the
// exposure index: the index is a whole-prefix walk that only the batch
// report's crawls amortize, and a serve cycle — universe construction, the
// infected-set rebuild, the sweep's PortOpen and the grabs' Host lookups —
// must stay per address. The loop owns its universe, so the test counts
// builds process-wide; it must not run in parallel with a test that builds
// one.
func TestServeNeverBuildsTheIndex(t *testing.T) {
	before := iot.IndexBuilds()
	l := serve.New(serve.Config{
		Seed: 11, Prefix: netsim.MustParsePrefix("100.0.0.0/24"), Boost: 16,
		Workers: 4, Intensity: 0.002, Scale: 0.0002,
		SegmentsPerCycle: 2, SegmentTargets: 64,
	})
	if err := l.Run(context.Background(), 3); err != nil {
		t.Fatal(err)
	}
	if l.Cycle() != 3 {
		t.Fatalf("ran %d cycles, want 3", l.Cycle())
	}
	if built := iot.IndexBuilds() - before; built != 0 {
		t.Errorf("3 serve cycles built the exposure index %d time(s)", built)
	}

	// The counter does count: the same universe, asked, builds one.
	u := iot.NewUniverse(iot.UniverseConfig{
		Seed: 11, Prefix: netsim.MustParsePrefix("100.0.0.0/24"), DensityBoost: 16,
	})
	u.ExposedIndex()
	u.ExposedIndex()
	if built := iot.IndexBuilds() - before; built != 1 {
		t.Errorf("two ExposedIndex calls on one universe counted %d build(s), want 1", built)
	}
}
