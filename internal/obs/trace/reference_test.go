package trace_test

// Session derivation as it stood before Log.Drain returned the canonical
// order: copy the month, sort the copy canonically, then stable-sort it by
// session key. Kept as the reference the new derivation, which reads the
// drained month and keeps only the key sort, must reproduce byte for byte.

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"

	"openhire/internal/expr"
	"openhire/internal/honeypot"
	"openhire/internal/iot"
	"openhire/internal/netsim"
	"openhire/internal/obs/trace"
)

// referenceSortCanonical is the content order every field decides, ties
// broken field by field.
func referenceSortCanonical(evs []honeypot.Event) {
	sort.Slice(evs, func(i, j int) bool {
		a, b := &evs[i], &evs[j]
		if !a.Time.Equal(b.Time) {
			return a.Time.Before(b.Time)
		}
		if a.Honeypot != b.Honeypot {
			return a.Honeypot < b.Honeypot
		}
		if a.Protocol != b.Protocol {
			return a.Protocol < b.Protocol
		}
		if a.Src != b.Src {
			return a.Src < b.Src
		}
		if a.Type != b.Type {
			return a.Type < b.Type
		}
		if a.Username != b.Username {
			return a.Username < b.Username
		}
		if a.Password != b.Password {
			return a.Password < b.Password
		}
		if a.Detail != b.Detail {
			return a.Detail < b.Detail
		}
		return bytes.Compare(a.Payload, b.Payload) < 0
	})
}

func referenceSessionEvents(r *trace.Recorder, events []honeypot.Event) {
	if r == nil || len(events) == 0 {
		return
	}
	evs := make([]honeypot.Event, len(events))
	copy(evs, events)
	referenceSortCanonical(evs)
	sort.SliceStable(evs, func(i, j int) bool {
		a, b := &evs[i], &evs[j]
		if a.Src != b.Src {
			return a.Src < b.Src
		}
		if a.Honeypot != b.Honeypot {
			return a.Honeypot < b.Honeypot
		}
		return a.Protocol < b.Protocol
	})
	type sessionKey struct {
		src   netsim.IPv4
		pot   string
		proto iot.Protocol
		day   int
	}
	keyOf := func(e *honeypot.Event) sessionKey {
		return sessionKey{e.Src, e.Honeypot, e.Protocol,
			int(e.Time.Sub(netsim.ExperimentStart) / (24 * time.Hour))}
	}
	flush := func(k sessionKey, group []honeypot.Event) {
		if !r.Sampled(uint64(k.src)) {
			return
		}
		base := trace.Event{Protocol: string(k.proto), IP: k.src.String(), Peer: k.pot, Day: k.day}
		open := base
		open.Kind = trace.KindSessionOpen
		open.SimNS = int64(group[0].Time.Sub(netsim.ExperimentStart))
		r.Record(uint64(k.src), open)
		for i := range group {
			cmd := base
			cmd.Kind = trace.KindSessionEvent
			cmd.SimNS = int64(group[i].Time.Sub(netsim.ExperimentStart))
			cmd.Detail = string(group[i].Type)
			if d := group[i].Detail; d != "" {
				cmd.Detail += ": " + d
			}
			r.Record(uint64(k.src), cmd)
		}
		cl := base
		cl.Kind = trace.KindSessionClose
		cl.SimNS = int64(group[len(group)-1].Time.Sub(netsim.ExperimentStart))
		cl.Count = uint64(len(group))
		r.Record(uint64(k.src), cl)
	}
	start := 0
	cur := keyOf(&evs[0])
	for i := 1; i <= len(evs); i++ {
		var k sessionKey
		if i < len(evs) {
			k = keyOf(&evs[i])
		}
		if i == len(evs) || k != cur {
			flush(cur, evs[start:i])
			start, cur = i, k
		}
	}
}

// sessionTrace derives the sessions of events into a fresh recorder and
// returns its JSON Lines.
func sessionTrace(t *testing.T, derive func(*trace.Recorder, []honeypot.Event), events []honeypot.Event, sampleOneIn uint64) []byte {
	t.Helper()
	rec := trace.NewRecorder("test", 1, sampleOneIn)
	derive(rec, events)
	var buf bytes.Buffer
	if err := rec.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSessionEventsEqualsReference requires the session trace of a drained
// month to be byte-identical to the reference's trace of the same events in
// any order: on the QuickConfig month and on generated months with shared
// timestamps and shared sources, at every source and at one in four.
func TestSessionEventsEqualsReference(t *testing.T) {
	check := func(name string, drained, shuffled []honeypot.Event) {
		t.Helper()
		for _, sample := range []uint64{1, 4} {
			want := sessionTrace(t, referenceSessionEvents, shuffled, sample)
			got := sessionTrace(t, trace.SessionEvents, drained, sample)
			if !bytes.Equal(got, want) {
				t.Fatalf("%s, 1 in %d sampled: trace differs from the reference (%d vs %d bytes)", name, sample, len(got), len(want))
			}
			if bytes.Count(want, []byte("\n")) < 10 {
				t.Fatalf("%s, 1 in %d sampled: the reference traced only %d events", name, sample, bytes.Count(want, []byte("\n")))
			}
		}
	}
	shuffle := func(rng *rand.Rand, events []honeypot.Event) []honeypot.Event {
		out := append([]honeypot.Event(nil), events...)
		rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
		return out
	}
	rng := rand.New(rand.NewSource(1))
	month := expr.BuildWorld(expr.QuickConfig()).Events()
	check("QuickConfig month", month, shuffle(rng, month))

	protos := []iot.Protocol{iot.ProtoTelnet, iot.ProtoSSH, iot.ProtoMQTT}
	pots := []string{"Cowrie", "HosTaGe"}
	types := []honeypot.AttackType{honeypot.AttackScan, honeypot.AttackBruteForce, honeypot.AttackDoS}
	for seed := int64(1); seed <= 10; seed++ {
		var events []honeypot.Event
		for i := 0; i < 500; i++ {
			events = append(events, honeypot.Event{
				Time:     netsim.ExperimentStart.Add(time.Duration(rng.Intn(3))*24*time.Hour + time.Duration(rng.Intn(2))*time.Hour),
				Honeypot: pots[rng.Intn(len(pots))],
				Protocol: protos[rng.Intn(len(protos))],
				Src:      netsim.IPv4(rng.Intn(30)),
				Type:     types[rng.Intn(len(types))],
				Detail:   fmt.Sprintf("d%d", rng.Intn(4)),
			})
		}
		log := &honeypot.Log{}
		for _, ev := range events {
			log.Append(ev)
		}
		check(fmt.Sprintf("generated month %d", seed), log.Drain(), shuffle(rng, events))
	}
}
