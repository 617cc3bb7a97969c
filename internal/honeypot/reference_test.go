package honeypot_test

// The multistage grouping as it stood before DetectMultistage took the
// exclusion set and read the drained month in place: filter a copy, copy
// and stable-sort it by time, then group. Kept as the reference the new
// grouping must reproduce exactly on time-ordered months.

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"openhire/internal/expr"
	"openhire/internal/honeypot"
	"openhire/internal/iot"
	"openhire/internal/netsim"
)

func referenceFilterBySources(events []honeypot.Event, exclude map[netsim.IPv4]bool) []honeypot.Event {
	out := make([]honeypot.Event, 0, len(events))
	for _, ev := range events {
		if !exclude[ev.Src] {
			out = append(out, ev)
		}
	}
	return out
}

func referenceDetectMultistage(events []honeypot.Event) []honeypot.MultistageAttack {
	type state struct {
		order []iot.Protocol
		seen  map[iot.Protocol]bool
		count int
	}
	bySrc := make(map[netsim.IPv4]*state)
	sorted := append([]honeypot.Event(nil), events...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Time.Before(sorted[j].Time) })
	for _, ev := range sorted {
		st := bySrc[ev.Src]
		if st == nil {
			st = &state{seen: make(map[iot.Protocol]bool)}
			bySrc[ev.Src] = st
		}
		st.count++
		if !st.seen[ev.Protocol] {
			st.seen[ev.Protocol] = true
			st.order = append(st.order, ev.Protocol)
		}
	}
	var out []honeypot.MultistageAttack
	for src, st := range bySrc {
		if len(st.order) >= 2 {
			out = append(out, honeypot.MultistageAttack{Src: src, Protocols: st.order, Events: st.count})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Src < out[j].Src })
	return out
}

// generatedMonth draws n events over a few days with shared timestamps,
// shared sources and several protocols, appends them to a log in draw order
// and returns the drain: a time-ordered month like the campaign's.
func generatedMonth(seed int64, n int) []honeypot.Event {
	rng := rand.New(rand.NewSource(seed))
	protos := []iot.Protocol{iot.ProtoTelnet, iot.ProtoSSH, iot.ProtoSMB, iot.ProtoHTTP, iot.ProtoS7}
	pots := []string{"Cowrie", "HosTaGe", "Conpot"}
	log := &honeypot.Log{}
	for i := 0; i < n; i++ {
		log.Append(honeypot.Event{
			Time:     netsim.ExperimentStart.Add(time.Duration(rng.Intn(4))*24*time.Hour + time.Duration(rng.Intn(3))*time.Minute),
			Honeypot: pots[rng.Intn(len(pots))],
			Protocol: protos[rng.Intn(len(protos))],
			Src:      netsim.IPv4(rng.Intn(40)),
			Type:     honeypot.AttackBruteForce,
			Password: fmt.Sprintf("p%d", rng.Intn(5)),
		})
	}
	return log.Drain()
}

// TestDetectMultistageEqualsReference requires the in-place grouping to
// give the reference's attacks on the QuickConfig month, excluding the
// scanning services as Figure 9 does, and on generated months with shared
// timestamps, shared sources and excluded sources.
func TestDetectMultistageEqualsReference(t *testing.T) {
	w := expr.BuildWorld(expr.QuickConfig())
	exclude := make(map[netsim.IPv4]bool)
	for ip := range w.Sources.ScanningServiceIPs() {
		exclude[ip] = true
	}
	check := func(name string, events []honeypot.Event, exclude map[netsim.IPv4]bool) {
		t.Helper()
		want := referenceDetectMultistage(referenceFilterBySources(events, exclude))
		if len(want) == 0 {
			t.Fatalf("%s: the reference found no multistage attacks", name)
		}
		if got := honeypot.DetectMultistage(events, exclude); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: %d attacks differ from the reference's %d:\ngot  %+v\nwant %+v", name, len(got), len(want), got, want)
		}
	}
	check("QuickConfig month", w.Events(), exclude)
	for seed := int64(1); seed <= 20; seed++ {
		events := generatedMonth(seed, 600)
		exclude := map[netsim.IPv4]bool{netsim.IPv4(seed % 40): true, netsim.IPv4((seed + 7) % 40): true}
		check(fmt.Sprintf("generated month %d", seed), events, exclude)
	}
}
