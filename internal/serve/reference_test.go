package serve

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"openhire/internal/attack"
	"openhire/internal/checkpoint/wire"
	"openhire/internal/core/correlate"
	"openhire/internal/honeypot"
	"openhire/internal/netsim"
	"openhire/internal/telescope"
)

// referenceRender is the publish step as it was before it went
// incremental: all four bodies marshalled whole from the live aggregates,
// and the Section 5.3 join counted from scratch by correlate.Count. Every
// published snapshot must equal it byte for byte.
func referenceRender(a *Aggregates, cycle int, st statusBody) (*Published, error) {
	w := a.Watermark(cycle)
	st.Watermark = w
	c := a.Correlate
	j := correlate.Count(c.Misconfigured, c.HoneypotSources, c.TelescopeSources)
	corr := Correlation{
		Misconfigured:          len(c.Misconfigured),
		HoneypotSources:        len(c.HoneypotSources),
		TelescopeSources:       len(c.TelescopeSources),
		MisconfiguredAttacking: j.HoneypotOnly + j.Both,
		MisconfiguredScanning:  j.TelescopeOnly + j.Both,
		AttackingScanning:      j.SharedSources,
		AllThree:               j.Both,
	}
	out := &Published{Watermark: w}
	var err error
	if out.Exposure, err = marshalBody(exposureBody{w, a.Exposure}); err != nil {
		return nil, err
	}
	if out.Trends, err = marshalBody(trendsBody{w, a.Trends}); err != nil {
		return nil, err
	}
	if out.Correlate, err = marshalBody(correlateBody{w, corr}); err != nil {
		return nil, err
	}
	if out.Status, err = marshalBody(st); err != nil {
		return nil, err
	}
	return out, nil
}

// FoldTelescopeDay is the telescope fold as it was before the daemon folded
// the darknet day as it was generated: one drained day of flows into the
// trend row for the absolute day cycle — flow/packet volume, the hourly
// rotation buckets from dayStart, and every flow's source inserted into the
// telescope-source set. FoldDarknetDay must leave the aggregates it leaves.
func (a *Aggregates) FoldTelescopeDay(cycle int, dayStart time.Time, flows []*telescope.FlowTuple) {
	row := a.Trends.day(cycle)
	row.TelescopeFlows = len(flows)
	row.TelescopePackets = 0
	row.HourlyPackets = make([]uint64, 24)
	for _, ft := range flows {
		row.TelescopePackets += uint64(ft.PacketCnt)
		a.addTelescopeSource(ft.SrcIP)
		if off := ft.Time().Sub(dayStart); off >= 0 && off < 24*time.Hour {
			row.HourlyPackets[off/time.Hour] += uint64(ft.PacketCnt)
		}
	}
}

// withReference makes l compare every snapshot it publishes with
// referenceRender over its live aggregates (the status body's wall-clock
// ops block aside), before the OnPublish hook l already has.
func withReference(t *testing.T, l *Loop) *Loop {
	t.Helper()
	next := l.cfg.OnPublish
	l.cfg.OnPublish = func(s *Published) {
		want, err := referenceRender(l.agg, l.cycle, statusBody{
			Seed:             l.cfg.Seed,
			Prefix:           l.cfg.Prefix.String(),
			Intensity:        l.cfg.Intensity,
			Scale:            l.cfg.Scale,
			SegmentsPerCycle: l.cfg.SegmentsPerCycle,
			SegmentTargets:   l.cfg.SegmentTargets,
		})
		if err != nil {
			t.Fatal(err)
		}
		sameSnapshot(t, fmt.Sprintf("cycle %d against the reference render", l.cycle), want, s)
		if next != nil {
			next(s)
		}
	}
	return l
}

// TestPublishedEqualsReference requires every snapshot of a run through two
// month boundaries to equal the reference render, at 1 and 7 workers: the
// sealed trend rows rendered once, the join counts kept on insert.
func TestPublishedEqualsReference(t *testing.T) {
	for _, workers := range []int{1, 7} {
		l := withReference(t, New(testConfig(workers)))
		if err := l.Run(context.Background(), 2*monthDays+2); err != nil {
			t.Fatal(err)
		}
	}
}

// TestTrendsBodyRows renders a trends body from a restored Aggregates at
// every cycle, including ones behind its last row, whose unsealed rows are
// rendered each time and never cached; each body must be marshalBody's.
func TestTrendsBodyRows(t *testing.T) {
	var src Aggregates
	for d := 0; d < 6; d++ {
		src.FoldAttackDay(d, []honeypot.Event{{Src: netsim.IPv4(d), Type: honeypot.AttackType(`"<&>\` + fmt.Sprint(d))}})
		src.FoldDarknetDay(d, nil)
	}
	restored := readAggregates(wire.NewReader(src.appendBinary(nil)))
	for _, a := range []*Aggregates{restored, {}} {
		for cycle := 0; cycle <= 7; cycle++ {
			w := a.Watermark(cycle)
			got, err := a.trendsBody(w, cycle)
			if err != nil {
				t.Fatal(err)
			}
			want, err := marshalBody(trendsBody{w, a.Trends})
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != string(want) {
				t.Fatalf("%d rows, cycle %d: trends body differs from marshalBody:\n got %q\nwant %q", len(a.Trends.Days), cycle, got, want)
			}
		}
	}
}

// TestJoinKeptOnInsert folds generated attack and telescope days and
// misconfigured addresses, drawn from a small address range so the three
// sets overlap, and requires the kept counts to equal correlate.Count after
// every fold — from a fresh Aggregates, and from decoded ones, which count
// from scratch on their first Correlation call.
func TestJoinKeptOnInsert(t *testing.T) {
	gen := rand.New(rand.NewSource(53))
	ip := func() netsim.IPv4 { return netsim.IPv4(gen.Intn(300)) }
	check := func(a *Aggregates, label string) {
		t.Helper()
		c := a.Correlate
		want := correlate.Count(c.Misconfigured, c.HoneypotSources, c.TelescopeSources)
		if a.Correlation(); a.join != want {
			t.Fatalf("%s: kept join %+v, correlate.Count %+v", label, a.join, want)
		}
	}
	a := &Aggregates{}
	for step := 0; step < 400; step++ {
		day := step / 4
		switch gen.Intn(3) {
		case 0:
			events := make([]honeypot.Event, gen.Intn(6))
			for i := range events {
				events[i] = honeypot.Event{Src: ip(), Type: "scan"}
			}
			a.FoldAttackDay(day, events)
		case 1:
			fresh := make([]netsim.IPv4, gen.Intn(6))
			for i := range fresh {
				fresh[i] = ip()
			}
			a.FoldDarknetDay(day, []attack.UnitFold{{Flows: len(fresh), Packets: uint64(len(fresh)), Fresh: fresh}})
		default:
			for n := gen.Intn(4); n > 0; n-- {
				a.addMisconfigured(ip())
			}
		}
		check(a, fmt.Sprintf("step %d", step))
		if step%100 == 99 {
			// The next fold lands before the decoded copy has counted.
			if a = readAggregates(wire.NewReader(a.appendBinary(nil))); a.counted {
				t.Fatal("a decoded Aggregates claims kept join counts")
			}
		}
	}
	check(a, "after the last decode")
	if j := a.join; j.HoneypotOnly == 0 || j.TelescopeOnly == 0 || j.Both == 0 || j.SharedSources == 0 {
		t.Fatalf("generated folds left an empty subset (%+v): the comparison proves little", j)
	}
}
