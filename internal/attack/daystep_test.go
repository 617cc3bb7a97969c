package attack

import (
	"context"
	"encoding/json"
	"testing"

	"openhire/internal/attack/malware"
	"openhire/internal/geo"
	"openhire/internal/intel"
)

// TestCampaignDayStepping replays the month one day at a time — Days: 1, the
// scheduler state captured in OnDay and passed to the next Run, one
// persistent world — in two ways, and asserts each is indistinguishable from
// a single uninterrupted Run: identical canonical logs, event for event, and
// cumulative counters. "month" steps one campaign 30 times, the serve
// daemon's cadence; "fresh" builds a new campaign from a new Sources every
// day and resumes it, the batch checkpoint's resume path. Stepping must also
// leave the shared clock where the next day's Set expects it (stopping
// mid-month must not jump to the end of the month).
func TestCampaignDayStepping(t *testing.T) {
	goldenC, goldenLog, ctx := campaignWorld(t, nil)
	goldenStats := goldenC.Run(ctx, nil)
	golden := goldenLog.Drain()
	if len(golden) == 0 {
		t.Fatal("golden run logged nothing")
	}

	for _, mode := range []string{"month", "fresh"} {
		t.Run(mode, func(t *testing.T) {
			n, pots, log, u, clk := buildWorld(t)
			var resume *CampaignResume
			var captured CampaignResume
			var c *Campaign
			build := func() *Campaign {
				gn := intel.NewGreyNoise(7, 0.81)
				rdns := geo.NewRDNS(7)
				return NewCampaign(CampaignConfig{
					Seed: 7, Network: n, Honeypots: pots, Universe: u,
					Sources: NewSources(7, u, rdns, gn), Corpus: malware.NewCorpus(7, nil),
					Intensity: 0.01, Workers: 64, Clock: clk,
					GreyNoise: gn, VirusTotal: intel.NewVirusTotal(), RDNS: rdns,
					Days: 1,
					OnDay: func(d, planned, run int) {
						captured = c.SchedulerState(d, planned, run)
					},
				})
			}
			var last Stats
			for day := 0; day < ExperimentDays; day++ {
				if c == nil || mode == "fresh" {
					c = build()
				}
				last = c.Run(context.Background(), resume)
				if captured.NextDay != day+1 {
					t.Fatalf("step %d captured NextDay %d", day, captured.NextDay)
				}
				resume = &captured
			}

			if last.EventsPlanned != goldenStats.EventsPlanned || last.EventsRun != goldenStats.EventsRun {
				t.Fatalf("cumulative stats diverge: stepped planned=%d run=%d, golden planned=%d run=%d",
					last.EventsPlanned, last.EventsRun, goldenStats.EventsPlanned, goldenStats.EventsRun)
			}
			got := log.Drain()
			if len(got) != len(golden) {
				t.Fatalf("event counts diverge: stepped %d, golden %d", len(got), len(golden))
			}
			for i := range got {
				gotJSON, _ := json.Marshal(got[i])
				wantJSON, _ := json.Marshal(golden[i])
				if string(gotJSON) != string(wantJSON) {
					t.Fatalf("event %d diverges in day-stepped replay:\n  stepped: %s\n  golden:  %s",
						i, gotJSON, wantJSON)
				}
			}
			// The final step closed the month, so the clock sits at day 30.
			if !clk.Now().Equal(DayStart(ExperimentDays)) {
				t.Fatalf("clock after final step: %v, want %v", clk.Now(), DayStart(ExperimentDays))
			}
		})
	}
}

// TestCampaignDaysBoundPartial asserts a Days-bounded Run stopping mid-month
// does not jump the clock to month end: the clock stays inside the month so
// a follow-up bounded Run can continue, and honeypot events carry the days
// actually executed.
func TestCampaignDaysBoundPartial(t *testing.T) {
	n, pots, log, u, clk := buildWorld(t)
	gn := intel.NewGreyNoise(7, 0.81)
	rdns := geo.NewRDNS(7)
	sources := NewSources(7, u, rdns, gn)
	corpus := malware.NewCorpus(7, nil)
	var captured CampaignResume
	var c *Campaign
	c = NewCampaign(CampaignConfig{
		Seed: 7, Network: n, Honeypots: pots, Universe: u,
		Sources: sources, Corpus: corpus,
		Intensity: 0.01, Workers: 64, Clock: clk,
		GreyNoise: gn, RDNS: rdns,
		Days: 3,
		OnDay: func(d, planned, run int) {
			captured = c.SchedulerState(d, planned, run)
		},
	})
	c.Run(context.Background(), nil)
	if captured.NextDay != 3 {
		t.Fatalf("bounded run executed through NextDay %d, want 3", captured.NextDay)
	}
	if !clk.Now().Before(DayStart(3).Add(24*60*60*1e9)) || clk.Now().Before(DayStart(2)) {
		t.Fatalf("clock after Days=3 run: %v, want within day 2's schedule", clk.Now())
	}
	evs := log.Drain()
	if len(evs) == 0 {
		t.Fatal("bounded run logged nothing")
	}
	for _, ev := range evs {
		if ev.Time.After(DayStart(3)) {
			t.Fatalf("event stamped %v past the Days bound", ev.Time)
		}
	}
}
