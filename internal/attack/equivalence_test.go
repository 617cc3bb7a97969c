package attack

import (
	"bytes"
	"context"
	"reflect"
	"testing"
	"time"

	"openhire/internal/attack/malware"
	"openhire/internal/geo"
	"openhire/internal/honeypot"
	"openhire/internal/iot"
	"openhire/internal/netsim"
	"openhire/internal/telescope"
)

// dumpFlows serializes a telescope's capture to CSV lines.
func dumpFlows(flows []*telescope.FlowTuple) []byte {
	var out []byte
	for _, ft := range flows {
		out = ft.AppendCSV(out)
	}
	return out
}

// runDarknet generates a 3-day capture at the paper's benchmark scale with
// the given worker count and returns the CSV dump plus the Table 8 rows.
func runDarknet(t *testing.T, workers int) ([]byte, []telescope.ProtocolStats) {
	t.Helper()
	tel := telescope.New(netsim.MustParsePrefix("44.0.0.0/8"), geo.NewDB(1, nil))
	g := NewDarknetGenerator(DarknetConfig{
		Seed: 9, Telescope: tel, GeoDB: geo.NewDB(1, nil),
		Scale: 1.0 / 8192, Days: 3, Workers: workers,
	})
	g.Run()
	flows := tel.Flows()
	return dumpFlows(flows), telescope.AggregateByProtocol(flows)
}

// TestDarknetParallelEquivalence is the tentpole guarantee: the same seed at
// Scale=1/8192 over 3 days produces byte-identical flow dumps and identical
// Table 8 aggregation rows whether generation ran on 1 worker or 8.
func TestDarknetParallelEquivalence(t *testing.T) {
	dumpSeq, aggSeq := runDarknet(t, 1)
	dumpPar, aggPar := runDarknet(t, 8)
	if !bytes.Equal(dumpSeq, dumpPar) {
		t.Fatalf("flow dumps differ between 1 and 8 workers (%d vs %d bytes)",
			len(dumpSeq), len(dumpPar))
	}
	if !reflect.DeepEqual(aggSeq, aggPar) {
		t.Fatalf("AggregateByProtocol differs:\n1 worker: %+v\n8 workers: %+v", aggSeq, aggPar)
	}
}

// TestDarknetSameSeedSameDump is the regression test for the map-iteration
// determinism bug: with a populated scanning-service pool, two generators
// built from scratch with the same seed must emit byte-identical dumps. The
// source pool used to range over Sources' service map, whose iteration order
// the runtime randomizes, so this failed across process restarts — and often
// within one process.
func TestDarknetSameSeedSameDump(t *testing.T) {
	run := func() []byte {
		s := NewSources(7, nil, nil, nil)
		s.BuildScanningPool(600)
		tel := telescope.New(netsim.MustParsePrefix("44.0.0.0/8"), nil)
		g := NewDarknetGenerator(DarknetConfig{
			Seed: 13, Telescope: tel, Sources: s, Scale: 1.0 / 200000, Days: 1,
		})
		g.Run()
		return dumpFlows(tel.Flows())
	}
	if a, b := run(), run(); !bytes.Equal(a, b) {
		t.Fatal("same-seed darknet runs produced different dumps")
	}
}

// TestDarknetRunDayMatchesRun verifies the rotation path: RunDay(d) + Drain
// per day concatenates to exactly the flow set Run produces in one shot.
func TestDarknetRunDayMatchesRun(t *testing.T) {
	cfg := func(tel *telescope.Telescope) DarknetConfig {
		return DarknetConfig{Seed: 21, Telescope: tel, Scale: 1.0 / 100000, Days: 3}
	}
	telA := telescope.New(netsim.MustParsePrefix("44.0.0.0/8"), nil)
	NewDarknetGenerator(cfg(telA)).Run()
	oneShot := dumpFlows(telA.Flows())

	telB := telescope.New(netsim.MustParsePrefix("44.0.0.0/8"), nil)
	gb := NewDarknetGenerator(cfg(telB))
	var rotated []byte
	for day := 0; day < 3; day++ {
		gb.RunDay(day)
		rotated = append(rotated, dumpFlows(telB.Drain())...)
	}
	if telB.Len() != 0 {
		t.Fatalf("telescope holds %d flows after final drain", telB.Len())
	}
	// Run interleaves days per protocol in unit-ordinal order; rotation cuts
	// per day. Same flows, so per-protocol totals must agree exactly.
	aggEqual := func(dump []byte) []telescope.ProtocolStats {
		flows, err := telescope.ReadCSV(bytes.NewReader(dump))
		if err != nil {
			t.Fatal(err)
		}
		return telescope.AggregateByProtocol(flows)
	}
	if a, b := aggEqual(oneShot), aggEqual(rotated); !reflect.DeepEqual(a, b) {
		t.Fatalf("rotated aggregation differs:\nrun: %+v\nrotated: %+v", a, b)
	}
	if len(oneShot) != len(rotated) {
		t.Fatalf("dump sizes differ: %d vs %d bytes", len(oneShot), len(rotated))
	}
}

// TestDrainedDayOutlivesNextRunDay fences the contract between RecordBatch
// and Drain: a drained day's records belong to the caller, and no later day
// writes into them. The serve daemon keeps a drained day's pointers while it
// writes hour files and folds, and generates the next day after that.
func TestDrainedDayOutlivesNextRunDay(t *testing.T) {
	tel := telescope.New(netsim.MustParsePrefix("44.0.0.0/8"), nil)
	g := NewDarknetGenerator(DarknetConfig{Seed: 21, Telescope: tel, Scale: 1.0 / 100000, Days: 3})
	g.RunDay(0)
	day0 := tel.Drain()
	want := dumpFlows(day0)
	for day := 1; day < 3; day++ {
		g.RunDay(day)
		if got := dumpFlows(day0); !bytes.Equal(got, want) {
			t.Fatalf("RunDay(%d) rewrote records drained on day 0", day)
		}
		if len(tel.Drain()) == 0 {
			t.Fatalf("RunDay(%d) recorded no flows", day)
		}
	}
}

// runCampaign replays a small attack month with the given worker count and
// returns the honeypot log's drain.
func runCampaign(t *testing.T, workers int) []honeypot.Event {
	t.Helper()
	n, pots, log, u, clk := buildWorld(t)
	sources := NewSources(11, u, nil, nil)
	c := NewCampaign(CampaignConfig{
		Seed: 11, Network: n, Honeypots: pots, Universe: u,
		Sources: sources, Corpus: malware.NewCorpus(1, nil),
		Intensity: 0.004, Workers: workers, Clock: clk,
	})
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	c.Run(ctx, nil)
	return log.Drain()
}

// TestCampaignParallelEquivalence verifies the replay's worker-count
// independence: jobs are routed to per-worker FIFO queues by flood-counter
// key, so the log content — including which events the flood heuristic
// upgraded to DoS — is identical for 1 and 8 workers once scheduling order
// is factored out by the log's canonical drain.
func TestCampaignParallelEquivalence(t *testing.T) {
	seq := runCampaign(t, 1)
	par := runCampaign(t, 8)
	if len(seq) != len(par) {
		t.Fatalf("event counts differ: %d vs %d", len(seq), len(par))
	}
	for i := range seq {
		a, b := seq[i], par[i]
		if !a.Time.Equal(b.Time) || a.Honeypot != b.Honeypot || a.Protocol != b.Protocol ||
			a.Src != b.Src || a.Type != b.Type || a.Username != b.Username ||
			a.Password != b.Password || a.Detail != b.Detail || !bytes.Equal(a.Payload, b.Payload) {
			t.Fatalf("event %d differs:\n1 worker: %+v\n8 workers: %+v", i, a, b)
		}
	}
}

// TestDarknetOnUnitZeroPerturbation is the observability leg of the darknet
// equivalence gate: attaching an OnUnit hook must not change a single flow
// byte, the per-unit reports must sum to the generator's total, and the
// report sequence itself must be deterministic across runs.
func TestDarknetOnUnitZeroPerturbation(t *testing.T) {
	type unitReport struct {
		proto iot.Protocol
		day   int
		flows int
	}
	run := func(collect *[]unitReport) ([]byte, int) {
		tel := telescope.New(netsim.MustParsePrefix("44.0.0.0/8"), geo.NewDB(1, nil))
		cfg := DarknetConfig{
			Seed: 9, Telescope: tel, GeoDB: geo.NewDB(1, nil),
			Scale: 1.0 / 8192, Days: 3, Workers: 8,
		}
		if collect != nil {
			cfg.OnUnit = func(proto iot.Protocol, day, flows int) {
				*collect = append(*collect, unitReport{proto, day, flows})
			}
		}
		total := NewDarknetGenerator(cfg).Run()
		return dumpFlows(tel.Flows()), total
	}
	bare, bareTotal := run(nil)
	var unitsA, unitsB []unitReport
	hooked, hookedTotal := run(&unitsA)
	if !bytes.Equal(bare, hooked) {
		t.Fatalf("OnUnit hook changed the flow dump (%d vs %d bytes)", len(bare), len(hooked))
	}
	if bareTotal != hookedTotal {
		t.Fatalf("OnUnit hook changed the flow total: %d vs %d", bareTotal, hookedTotal)
	}
	sum := 0
	for _, u := range unitsA {
		sum += u.flows
	}
	if sum != hookedTotal {
		t.Fatalf("per-unit reports sum to %d, generator returned %d", sum, hookedTotal)
	}
	if _, total := run(&unitsB); total != hookedTotal || !reflect.DeepEqual(unitsA, unitsB) {
		t.Fatalf("unit report sequence not deterministic across runs")
	}
}

// TestCampaignOnDayZeroPerturbation is the observability leg of the campaign
// equivalence gate: attaching an OnDay hook must leave the honeypot log
// byte-identical, fire exactly once per simulated day in order, and report
// cumulative planned/run counts that end at the campaign's own totals.
func TestCampaignOnDayZeroPerturbation(t *testing.T) {
	type dayReport struct{ day, planned, run int }
	run := func(collect *[]dayReport) ([]honeypot.Event, Stats) {
		n, pots, log, u, clk := buildWorld(t)
		sources := NewSources(11, u, nil, nil)
		cfg := CampaignConfig{
			Seed: 11, Network: n, Honeypots: pots, Universe: u,
			Sources: sources, Corpus: malware.NewCorpus(1, nil),
			Intensity: 0.004, Workers: 8, Clock: clk,
		}
		if collect != nil {
			cfg.OnDay = func(day, planned, run int) {
				*collect = append(*collect, dayReport{day, planned, run})
			}
		}
		ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
		defer cancel()
		stats := NewCampaign(cfg).Run(ctx, nil)
		return log.Drain(), stats
	}
	bare, bareStats := run(nil)
	var days []dayReport
	hooked, hookedStats := run(&days)
	if len(bare) != len(hooked) {
		t.Fatalf("OnDay hook changed the event count: %d vs %d", len(bare), len(hooked))
	}
	for i := range bare {
		a, b := bare[i], hooked[i]
		if !a.Time.Equal(b.Time) || a.Honeypot != b.Honeypot || a.Src != b.Src ||
			a.Type != b.Type || a.Detail != b.Detail || !bytes.Equal(a.Payload, b.Payload) {
			t.Fatalf("event %d differs with OnDay hook attached:\nbare:   %+v\nhooked: %+v", i, a, b)
		}
	}
	bareStats.Elapsed, hookedStats.Elapsed = 0, 0 // wall-clock, excluded by design
	if bareStats != hookedStats {
		t.Fatalf("OnDay hook changed campaign stats: %+v vs %+v", bareStats, hookedStats)
	}
	if len(days) != ExperimentDays {
		t.Fatalf("OnDay fired %d times, want %d", len(days), ExperimentDays)
	}
	for i, d := range days {
		if d.day != i {
			t.Fatalf("day reports out of order: %+v at index %d", d, i)
		}
		if i > 0 && (d.planned < days[i-1].planned || d.run < days[i-1].run) {
			t.Fatalf("cumulative counts regressed at day %d: %+v after %+v", i, d, days[i-1])
		}
	}
	last := days[len(days)-1]
	if last.planned != hookedStats.EventsPlanned || last.run != hookedStats.EventsRun {
		t.Fatalf("final day report %+v does not reconcile with stats %+v", last, hookedStats)
	}
}
