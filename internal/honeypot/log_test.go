package honeypot

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"openhire/internal/iot"
	"openhire/internal/netsim"
)

// TestLogSequentialOrderPreserved appends events that are already in
// canonical order from a single appender, across chunks: the drain returns
// every one of them, in that order.
func TestLogSequentialOrderPreserved(t *testing.T) {
	log := &Log{} // the zero value must be ready to use
	base := time.Date(2021, 4, 1, 0, 0, 0, 0, time.UTC)
	const n = 2*logChunk + 100
	for i := 0; i < n; i++ {
		log.Append(Event{
			// Repeated timestamps leave the source to order the events
			// within each second.
			Time:   base.Add(time.Duration(i/10) * time.Second),
			Src:    netsim.IPv4(i),
			Detail: fmt.Sprintf("ev-%d", i),
		})
	}
	events := log.Drain()
	if len(events) != n {
		t.Fatalf("events %d, want %d", len(events), n)
	}
	for i, ev := range events {
		if ev.Src != netsim.IPv4(i) {
			t.Fatalf("event %d out of order: src %d", i, ev.Src)
		}
	}
}

// TestLogConcurrentAppendKeepsAll hammers the log from many goroutines and
// verifies nothing is lost and the drain is time-ordered.
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
	events := log.Drain()
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

// TestLogDrain hammers the log from 32 appenders while the test
// goroutine drains it in a loop: every event must come back from exactly one
// drain, each drain in time order, and a further drain returns nothing.
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
	if evs := log.Drain(); len(evs) != 0 {
		t.Fatalf("after the last drain: %d events, want 0", len(evs))
	}

	// Appends after a drain start a fresh window: the next drain sees
	// exactly those.
	for i := 0; i < 3; i++ {
		log.Append(Event{Time: base, Src: netsim.IPv4(i)})
	}
	evs := log.Drain()
	if len(evs) != 3 {
		t.Fatalf("after 3 more appends: drained %d, want 3", len(evs))
	}
	for i, ev := range evs {
		if ev.Src != netsim.IPv4(i) {
			t.Fatalf("drained event %d out of canonical order: src %d", i, ev.Src)
		}
	}
	if evs := log.Drain(); len(evs) != 0 {
		t.Fatalf("%d events after draining, want 0", len(evs))
	}
}

// TestLogDrainCanonical pins the drain's contract: its order is a function
// of content alone. The same events appended forward into one log and in
// reverse into another, by 1 and by 8 goroutines, drain element-wise equal,
// and in the canonical order.
func TestLogDrainCanonical(t *testing.T) {
	base := time.Date(2021, 4, 1, 0, 0, 0, 0, time.UTC)
	protos := []iot.Protocol{iot.ProtoTelnet, iot.ProtoSSH, iot.ProtoSMB}
	pots := []string{"Cowrie", "HosTaGe"}
	const n = 3*logChunk + 17
	mk := func(i int) Event {
		return Event{
			Time: base.Add(time.Duration(i%3) * time.Minute), Honeypot: pots[i%2],
			Protocol: protos[i%3], Src: netsim.IPv4(i % 7), Type: AttackScan,
			Username: fmt.Sprintf("u%d", i%2), Password: fmt.Sprintf("p%d", i%11),
			Detail: fmt.Sprintf("d%d", i%5), Payload: []byte{byte(i % 4)},
		}
	}
	drain := func(goroutines int, reverse bool) []Event {
		log := &Log{}
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := g; i < n; i += goroutines {
					if reverse {
						log.Append(mk(n - 1 - i))
					} else {
						log.Append(mk(i))
					}
				}
			}(g)
		}
		wg.Wait()
		return log.Drain()
	}
	want := drain(1, false)
	if len(want) != n {
		t.Fatalf("drained %d events, want %d", len(want), n)
	}
	for i := 1; i < n; i++ {
		if compareEvents(&want[i-1], &want[i]) > 0 {
			t.Fatalf("drained event %d out of canonical order: %+v after %+v", i, want[i], want[i-1])
		}
	}
	for _, goroutines := range []int{1, 8} {
		for _, reverse := range []bool{false, true} {
			got := drain(goroutines, reverse)
			for i := range want {
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Fatalf("%d goroutines, reverse=%v: event %d is %+v, want %+v",
						goroutines, reverse, i, got[i], want[i])
				}
			}
		}
	}
}

// TestLogDrainDaysConcatenate drains after each simulated day, as a
// checkpointed run does at its day commits, and requires the concatenated
// drains to equal one month-end drain: a resumed run relies on it to put
// its committed days and the rest of the month back in canonical order.
func TestLogDrainDaysConcatenate(t *testing.T) {
	const days, perDay, workers = 5, 300, 8
	appendDay := func(log *Log, day int) {
		// Every event of a day carries that day's clock; the lanes append
		// concurrently.
		stamp := netsim.ExperimentStart.Add(time.Duration(day) * 24 * time.Hour)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; i < perDay; i += workers {
					log.Append(Event{
						Time: stamp, Honeypot: "Cowrie", Protocol: iot.ProtoTelnet,
						Src: netsim.IPv4((day*perDay + i) % 97), Type: AttackBruteForce,
						Password: fmt.Sprintf("p%d", i),
					})
				}
			}(w)
		}
		wg.Wait()
	}
	daily, monthly := &Log{}, &Log{}
	var concat []Event
	for day := 0; day < days; day++ {
		appendDay(daily, day)
		concat = append(concat, daily.Drain()...)
		appendDay(monthly, day)
	}
	month := monthly.Drain()
	if !reflect.DeepEqual(concat, month) {
		t.Fatalf("per-day drains (%d events) differ from the month-end drain (%d events)", len(concat), len(month))
	}
}

// TestFloodUpgradeThreshold verifies the flood counters keep the rate
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
	// A different source starts its own count.
	if upgraded(day0, netsim.MustParseIPv4("8.8.4.5")) {
		t.Fatal("fresh source inherited another source's count")
	}
	// The same source next day starts fresh.
	if upgraded(day0.Add(24*time.Hour), src) {
		t.Fatal("flood count leaked across the day boundary")
	}
}
