package attack_test

import (
	"context"
	"testing"

	"openhire/internal/attack"
	"openhire/internal/netsim"
	"openhire/internal/serve"
)

// TestServeDerivesInfectedOncePerMonth pins the daemon's sharing: the month
// world derives the infected set once and builds one campaign, every cycle
// steps that campaign, and the next month derives and builds its own — 61
// cycles touch three months, so three of each. The loop owns its Sources
// and campaigns, so the test counts process-wide; it must not run in
// parallel with a test that derives a set or builds a campaign.
func TestServeDerivesInfectedOncePerMonth(t *testing.T) {
	l := serve.New(serve.Config{
		Seed: 11, Prefix: netsim.MustParsePrefix("100.0.0.0/24"), Boost: 16,
		Workers: 4, Intensity: 0.002, Scale: 0.0002,
		SegmentsPerCycle: 1, SegmentTargets: 16, TSDBDisabled: true,
	})
	walks0, builds0 := attack.InfectedWalks(), attack.CampaignBuilds()
	for _, step := range []struct{ cycles, months int }{
		{1, 1},
		{2, 1},
		{attack.ExperimentDays, 1},     // the month's last day
		{attack.ExperimentDays + 1, 2}, // the next month's first
		{attack.ExperimentDays + 3, 2},
		{2*attack.ExperimentDays + 1, 3},
	} {
		if err := l.Run(context.Background(), step.cycles); err != nil {
			t.Fatal(err)
		}
		if walks := attack.InfectedWalks() - walks0; walks != int64(step.months) {
			t.Fatalf("after %d cycles: %d infected-set derivations, want %d", step.cycles, walks, step.months)
		}
		if builds := attack.CampaignBuilds() - builds0; builds != int64(step.months) {
			t.Fatalf("after %d cycles: %d campaigns built, want %d", step.cycles, builds, step.months)
		}
	}
}
