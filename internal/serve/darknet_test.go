package serve

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"openhire/internal/attack"
	"openhire/internal/checkpoint/wire"
	"openhire/internal/core/correlate"
	"openhire/internal/honeypot"
	"openhire/internal/telescope"
)

// TestFoldDayMatchesDrain holds the daemon's telescope leg — the generator's
// FoldDay, folded by FoldDarknetDay, with hour files cut from the units'
// buffers — to the path it replaced, over generators of the same month:
// RunDay, Telescope.Drain and the reference FoldTelescopeDay, with hour h's
// file WriteFlowsBinary of PartitionByHour's slot h. Every day of two months
// is folded both ways at 1 and 7 workers, into aggregates whose misconfigured
// and honeypot sets overlap the day's telescope sources; after each day the
// trend row, the join counts — kept on insert, and from scratch — and every
// hour's bytes must be equal, and a fold without encoding must equal the
// encoded one but for the records. Halfway through each month the folded
// side goes on as a restore does: decoded aggregates and a fresh generator,
// which reports every source it draws as fresh again. The encoded aggregates
// (TelescopeSources among them) must be equal before each restore and at
// each month's end.
func TestFoldDayMatchesDrain(t *testing.T) {
	for _, workers := range []int{1, 7} {
		l := New(testConfig(workers))
		ref, got := &Aggregates{}, &Aggregates{}
		got.Correlation() // counted from here on: every fold keeps the join
		for m := 0; m < 2; m++ {
			ms := l.monthSeed(m)
			infected := attack.DeriveInfected(ms, l.universe)
			refCfg := l.darknetConfig(ms, infected)
			refGen := attack.NewDarknetGenerator(refCfg)
			var gen, plain *attack.DarknetGenerator
			for d := 0; d < monthDays; d++ {
				label := fmt.Sprintf("workers %d, month %d, day %d", workers, m, d)
				cycle := m*monthDays + d
				if d == 0 || d == monthDays/2 {
					if d > 0 {
						got = readAggregates(wire.NewReader(got.appendBinary(nil)))
						got.Correlation()
					}
					gen = attack.NewDarknetGenerator(l.darknetConfig(ms, infected))
					plain = attack.NewDarknetGenerator(l.darknetConfig(ms, infected))
				}

				refGen.RunDay(d)
				flows := refCfg.Telescope.Drain()
				if len(flows) == 0 {
					t.Fatalf("%s: the reference drained no flows", label)
				}
				// Some of the day's sources, and neighbours of theirs the
				// telescope never sees, are misconfigured or attack the
				// honeypots before the telescope fold, so every subset of the
				// join moves.
				var events []honeypot.Event
				for i, ft := range flows {
					if i%5 == 0 {
						ref.addMisconfigured(ft.SrcIP)
						got.addMisconfigured(ft.SrcIP)
					}
					if i%3 == 0 {
						events = append(events, honeypot.Event{Src: ft.SrcIP, Type: "scan"})
					}
					if i%7 == 0 {
						ref.addMisconfigured(ft.SrcIP + 1)
						got.addMisconfigured(ft.SrcIP + 1)
						events = append(events, honeypot.Event{Src: ft.SrcIP + 1, Type: "scan"})
					}
				}
				ref.FoldAttackDay(cycle, events)
				got.FoldAttackDay(cycle, events)

				ref.FoldTelescopeDay(cycle, attack.DayStart(d), flows)
				units := gen.FoldDay(d, true)
				got.FoldDarknetDay(cycle, units)

				if !reflect.DeepEqual(got.Trends.Days[cycle], ref.Trends.Days[cycle]) {
					t.Fatalf("%s: trend row %+v, reference %+v", label, got.Trends.Days[cycle], ref.Trends.Days[cycle])
				}
				if d == monthDays/2-1 || d == monthDays-1 {
					if !bytes.Equal(got.appendBinary(nil), ref.appendBinary(nil)) {
						t.Fatalf("%s: encoded aggregates differ from the reference's", label)
					}
				}
				c := got.Correlate
				want := correlate.Count(c.Misconfigured, c.HoneypotSources, c.TelescopeSources)
				if got.Correlation(); got.join != want {
					t.Fatalf("%s: kept join %+v, correlate.Count %+v", label, got.join, want)
				}
				if got.Correlation() != ref.Correlation() {
					t.Fatalf("%s: correlation %+v, reference %+v", label, got.Correlation(), ref.Correlation())
				}

				parts := telescope.PartitionByHour(flows, attack.DayStart(d), 24)
				for h := range parts {
					var want bytes.Buffer
					if err := telescope.WriteFlowsBinary(&want, parts[h]); err != nil {
						t.Fatal(err)
					}
					var hour []byte
					for _, u := range units {
						hour = append(hour, u.Hours[h]...)
					}
					if !bytes.Equal(hour, want.Bytes()) {
						t.Fatalf("%s, hour %d: %d record bytes, the partitioned drain encodes %d", label, h, len(hour), want.Len())
					}
				}

				for i, u := range plain.FoldDay(d, false) {
					full := units[i]
					full.Hours = [24][]byte{}
					if !reflect.DeepEqual(u, full) {
						t.Fatalf("%s, unit %d: the fold without records differs from the encoded fold", label, i)
					}
				}
			}
		}
		if j := got.join; j.HoneypotOnly == 0 || j.TelescopeOnly == 0 || j.Both == 0 || j.SharedSources == 0 {
			t.Fatalf("workers %d: an empty subset of the join (%+v): the comparison proves little", workers, j)
		}
	}
}
