package honeypot

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"openhire/internal/iot"
	"openhire/internal/netsim"
)

// TestLogSequentialOrderPreserved pins the pre-sharding contract: a single
// appender reads its events back in append order.
func TestLogSequentialOrderPreserved(t *testing.T) {
	log := &Log{} // the zero value must be ready to use
	base := time.Date(2021, 4, 1, 0, 0, 0, 0, time.UTC)
	const n = 200
	for i := 0; i < n; i++ {
		log.Append(Event{
			// Repeated timestamps force the sequence tiebreaker to carry
			// the ordering within each second.
			Time:   base.Add(time.Duration(i/10) * time.Second),
			Src:    netsim.IPv4(i),
			Detail: fmt.Sprintf("ev-%d", i),
		})
	}
	if log.Len() != n {
		t.Fatalf("len %d, want %d", log.Len(), n)
	}
	events := log.Events()
	if len(events) != n {
		t.Fatalf("events %d, want %d", len(events), n)
	}
	for i, ev := range events {
		if ev.Src != netsim.IPv4(i) {
			t.Fatalf("event %d out of order: src %d", i, ev.Src)
		}
	}
}

// TestLogConcurrentAppendKeepsAll hammers the striped log from many
// goroutines and verifies nothing is lost and the merge is time-ordered.
func TestLogConcurrentAppendKeepsAll(t *testing.T) {
	log := &Log{}
	base := time.Date(2021, 4, 1, 0, 0, 0, 0, time.UTC)
	const workers, per = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				log.Append(Event{
					Time: base.Add(time.Duration(i) * time.Second),
					Src:  netsim.IPv4(w*per + i),
					Type: AttackScan,
				})
			}
		}(w)
	}
	wg.Wait()
	if log.Len() != workers*per {
		t.Fatalf("len %d, want %d", log.Len(), workers*per)
	}
	events := log.Events()
	if len(events) != workers*per {
		t.Fatalf("events %d, want %d", len(events), workers*per)
	}
	seen := make(map[netsim.IPv4]bool, len(events))
	for i, ev := range events {
		if i > 0 && ev.Time.Before(events[i-1].Time) {
			t.Fatalf("event %d out of time order", i)
		}
		if seen[ev.Src] {
			t.Fatalf("event for src %d appeared twice", ev.Src)
		}
		seen[ev.Src] = true
	}
}

// TestLogDrain hammers the striped log from 32 appenders while the test
// goroutine drains it in a loop: every event must come back from exactly one
// drain, each drain in time order, and the log must read empty afterwards —
// Len counts what is held, not what was ever appended.
func TestLogDrain(t *testing.T) {
	log := &Log{}
	base := time.Date(2021, 4, 1, 0, 0, 0, 0, time.UTC)
	const workers, per = 32, 400
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				log.Append(Event{
					Time: base.Add(time.Duration(i) * time.Second),
					Src:  netsim.IPv4(w*per + i),
				})
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()

	seen := make(map[netsim.IPv4]int, workers*per)
	for appending := true; appending; {
		select {
		case <-done:
			appending = false // this iteration's drain runs after the last append
		default:
		}
		evs := log.Drain()
		for i, ev := range evs {
			if i > 0 && ev.Time.Before(evs[i-1].Time) {
				t.Fatalf("drained event %d out of time order", i)
			}
			seen[ev.Src]++
		}
	}
	if len(seen) != workers*per {
		t.Fatalf("drains returned %d distinct events, want %d", len(seen), workers*per)
	}
	for src, n := range seen {
		if n != 1 {
			t.Fatalf("event for src %d returned %d times", src, n)
		}
	}
	if n, evs := log.Len(), log.Events(); n != 0 || len(evs) != 0 {
		t.Fatalf("after the last drain: len %d, events %d, want both 0", n, len(evs))
	}

	// Appends after a drain start a fresh window: Len, Events and the next
	// drain all see exactly those, in append order.
	for i := 0; i < 3; i++ {
		log.Append(Event{Time: base, Src: netsim.IPv4(i)})
	}
	if n, evs := log.Len(), log.Events(); n != 3 || len(evs) != 3 {
		t.Fatalf("after 3 more appends: len %d, events %d, want both 3", n, len(evs))
	}
	for i, ev := range log.Drain() {
		if ev.Src != netsim.IPv4(i) {
			t.Fatalf("drained event %d out of append order: src %d", i, ev.Src)
		}
	}
	if log.Len() != 0 {
		t.Fatalf("len %d after draining, want 0", log.Len())
	}
}

// TestSortEventsCanonical verifies the canonical order is a pure function of
// content: shuffling the input does not change the sorted result.
func TestSortEventsCanonical(t *testing.T) {
	base := time.Date(2021, 4, 1, 0, 0, 0, 0, time.UTC)
	mk := func(i int) Event {
		return Event{
			Time: base.Add(time.Duration(i%3) * time.Minute), Honeypot: "Cowrie",
			Protocol: iot.ProtoTelnet, Src: netsim.IPv4(i % 7), Type: AttackScan,
			Detail: fmt.Sprintf("d%d", i%5), Payload: []byte{byte(i % 4)},
		}
	}
	var fwd, rev []Event
	for i := 0; i < 60; i++ {
		fwd = append(fwd, mk(i))
		rev = append(rev, mk(59-i))
	}
	SortEventsCanonical(fwd)
	SortEventsCanonical(rev)
	for i := range fwd {
		a, b := fwd[i], rev[i]
		if !a.Time.Equal(b.Time) || a.Src != b.Src || a.Detail != b.Detail ||
			string(a.Payload) != string(b.Payload) {
			t.Fatalf("canonical order depends on input order at %d: %+v vs %+v", i, a, b)
		}
	}
}

// TestFloodUpgradeThreshold verifies the striped counters keep the rate
// heuristic exact: the first floodThreshold events of a (protocol, source,
// day) key pass through, every later one is upgraded to DoS, and other
// sources and days are unaffected.
func TestFloodUpgradeThreshold(t *testing.T) {
	h := New("U-Pot", "hue", netsim.MustParseIPv4("130.226.56.10"), netsim.NewSimClock(netsim.ExperimentStart), &Log{})
	day0 := time.Date(2021, 4, 1, 12, 0, 0, 0, time.UTC)

	upgraded := func(tm time.Time, src netsim.IPv4) bool {
		ev := Event{Time: tm, Protocol: iot.ProtoUPnP, Src: src, Type: AttackScan}
		h.floodUpgrade(&ev)
		return ev.Type == AttackDoS
	}
	src := netsim.MustParseIPv4("8.8.4.4")
	for i := 0; i < floodThreshold; i++ {
		if upgraded(day0, src) {
			t.Fatalf("event %d upgraded below threshold", i)
		}
	}
	for i := 0; i < 5; i++ {
		if !upgraded(day0, src) {
			t.Fatalf("event %d past threshold not upgraded", floodThreshold+i)
		}
	}
	// A different source — hashing to any stripe — starts its own count.
	if upgraded(day0, netsim.MustParseIPv4("8.8.4.5")) {
		t.Fatal("fresh source inherited another source's count")
	}
	// The same source next day starts fresh.
	if upgraded(day0.Add(24*time.Hour), src) {
		t.Fatal("flood count leaked across the day boundary")
	}
}
