package attack

import (
	"context"
	"encoding/json"
	"testing"

	"openhire/internal/attack/malware"
	"openhire/internal/geo"
	"openhire/internal/honeypot"
	"openhire/internal/intel"
)

// campaignWorld bundles one fresh world plus a campaign configured like
// TestCampaignReplaySmall, with the caller's OnDay wiring applied.
func campaignWorld(t testing.TB,
	onDay func(c *Campaign, log *honeypot.Log, day, planned, run int) bool) (*Campaign, *honeypot.Log, context.Context) {
	t.Helper()
	n, pots, log, u, clk := buildWorld(t)
	gn := intel.NewGreyNoise(7, 0.81)
	vt := intel.NewVirusTotal()
	rdns := geo.NewRDNS(7)
	sources := NewSources(7, u, rdns, gn)
	corpus := malware.NewCorpus(7, nil)
	ctx, cancel := context.WithCancel(context.Background())
	var c *Campaign
	cfg := CampaignConfig{
		Seed: 7, Network: n, Honeypots: pots, Universe: u,
		Sources: sources, Corpus: corpus,
		Intensity: 0.01, Workers: 64, Clock: clk,
		GreyNoise: gn, VirusTotal: vt, RDNS: rdns,
	}
	if onDay != nil {
		cfg.OnDay = func(day, planned, run int) {
			if onDay(c, log, day, planned, run) {
				cancel()
			}
		}
	}
	c = NewCampaign(cfg)
	t.Cleanup(cancel)
	return c, log, ctx
}

// TestCampaignResumeMidMonth kills the campaign at a mid-month day boundary,
// captures SchedulerState plus the canonical log exactly as the checkpoint
// path does, replays both into a fresh world, and asserts the final canonical
// log and cumulative counters are identical to an uninterrupted run.
func TestCampaignResumeMidMonth(t *testing.T) {
	goldenC, goldenLog, ctx := campaignWorld(t, nil)
	goldenStats := goldenC.Run(ctx, nil)
	golden := goldenLog.Drain()
	if len(golden) == 0 {
		t.Fatal("golden run logged nothing")
	}

	const killDay = 11
	var (
		saved     CampaignResume
		savedEvts []honeypot.Event
	)
	killedC, _, killCtx := campaignWorld(t,
		func(c *Campaign, log *honeypot.Log, day, planned, run int) bool {
			if day != killDay {
				return false
			}
			saved = c.SchedulerState(day, planned, run)
			savedEvts = log.Drain()
			return true
		})
	killedC.Run(killCtx, nil)
	if saved.NextDay != killDay+1 {
		t.Fatalf("capture missed: saved %+v", saved)
	}
	if len(savedEvts) == 0 || len(savedEvts) >= len(golden) {
		t.Fatalf("captured %d events, golden %d: kill day not mid-month", len(savedEvts), len(golden))
	}

	resumedC, resumedLog, resCtx := campaignWorld(t, nil)
	for _, ev := range savedEvts {
		resumedLog.Append(ev)
	}
	resumedStats := resumedC.Run(resCtx, &saved)

	if resumedStats.EventsPlanned != goldenStats.EventsPlanned ||
		resumedStats.EventsRun != goldenStats.EventsRun {
		t.Fatalf("stats diverge: resumed planned=%d run=%d, golden planned=%d run=%d",
			resumedStats.EventsPlanned, resumedStats.EventsRun,
			goldenStats.EventsPlanned, goldenStats.EventsRun)
	}
	got := resumedLog.Drain()
	if len(got) != len(golden) {
		t.Fatalf("event counts diverge: resumed %d, golden %d", len(got), len(golden))
	}
	for i := range got {
		gotJSON, _ := json.Marshal(got[i])
		wantJSON, _ := json.Marshal(golden[i])
		if string(gotJSON) != string(wantJSON) {
			t.Fatalf("event %d diverges after resume:\n  resumed: %s\n  golden:  %s",
				i, gotJSON, wantJSON)
		}
	}
}

// TestCampaignResumeStateDeterministic asserts the captured resume state is a
// pure function of (seed, config, day): two independent runs killed at the
// same boundary marshal identical resume state and identical canonical logs —
// the property that makes checkpoint bytes independent of kill history.
func TestCampaignResumeStateDeterministic(t *testing.T) {
	capture := func() (string, int) {
		var stateJSON string
		var events int
		c, _, ctx := campaignWorld(t,
			func(c *Campaign, log *honeypot.Log, day, planned, run int) bool {
				if day != 5 {
					return false
				}
				st := c.SchedulerState(day, planned, run)
				data, err := json.Marshal(st)
				if err != nil {
					t.Fatal(err)
				}
				stateJSON = string(data)
				events = len(log.Drain())
				return true
			})
		c.Run(ctx, nil)
		return stateJSON, events
	}
	s1, n1 := capture()
	s2, n2 := capture()
	if s1 == "" || s1 != s2 {
		t.Fatalf("resume state bytes differ between identical runs:\n  %s\n  %s", s1, s2)
	}
	if n1 != n2 {
		t.Fatalf("canonical log sizes differ: %d vs %d", n1, n2)
	}
}
