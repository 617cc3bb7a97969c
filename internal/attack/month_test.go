package attack_test

import (
	"context"
	"testing"

	"openhire/internal/attack"
	"openhire/internal/netsim"
	"openhire/internal/serve"
)

// TestServeDerivesInfectedOncePerMonth pins the daemon's sharing: the month
// world derives the infected set once, the generator and every cycle's
// campaign use that value, and the next month derives its own. The loop owns
// its Sources, so the test counts derivations process-wide; it must not run
// in parallel with a test that derives one.
func TestServeDerivesInfectedOncePerMonth(t *testing.T) {
	l := serve.New(serve.Config{
		Seed: 11, Prefix: netsim.MustParsePrefix("100.0.0.0/24"), Boost: 16,
		Workers: 4, Intensity: 0.002, Scale: 0.0002,
		SegmentsPerCycle: 1, SegmentTargets: 16, TSDBDisabled: true,
	})
	before := attack.InfectedWalks()
	for _, step := range []struct{ cycles, walks int }{
		{1, 1},
		{2, 1},
		{attack.ExperimentDays, 1},     // the month's last day
		{attack.ExperimentDays + 1, 2}, // the next month's first
		{attack.ExperimentDays + 3, 2},
	} {
		if err := l.Run(context.Background(), step.cycles); err != nil {
			t.Fatal(err)
		}
		if walks := attack.InfectedWalks() - before; walks != int64(step.walks) {
			t.Fatalf("after %d cycles: %d infected-set derivations, want %d", step.cycles, walks, step.walks)
		}
	}
}
