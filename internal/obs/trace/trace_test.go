package trace_test

// Determinism gates for the flight recorder. The tentpole claim is that a
// trace is a pure function of (seed, config): the sampled target set and the
// serialized artifact must be byte-identical across worker counts and across
// runs. These tests drive the real scan leg (with the calibrated fault
// profile, so retransmits, resets and breaker skips all appear) at several
// parallelism levels and require identical JSONL bytes.

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"

	"openhire/internal/core/scan"
	"openhire/internal/iot"
	"openhire/internal/netsim"
	"openhire/internal/netsim/faults"
	"openhire/internal/obs/trace"
)

// scanTrace runs the six-protocol scan over a fresh faulty world with the
// recorder attached and returns the serialized trace.
func scanTrace(t *testing.T, workers int) []byte {
	t.Helper()
	prefix := netsim.MustParsePrefix("50.0.0.0/20")
	u := iot.NewUniverse(iot.UniverseConfig{Seed: 77, Prefix: prefix, DensityBoost: 200})
	clock := netsim.NewSimClock(netsim.ExperimentStart)
	n := netsim.NewNetwork(clock)
	n.AddProvider(prefix, u)
	n.SetFaults(faults.New(faults.Calibrated()))
	rec := trace.NewRecorder("test", 5, 4)
	src := netsim.MustParseIPv4("130.226.0.1")
	cfg := scan.Config{
		Network: n,
		Source:  src,
		Prefix:  prefix,
		Seed:    5,
		Workers: workers,
		OnProbe: trace.ScanProbeHook(rec, n, src),
	}
	if _, _, err := scan.NewScanner(cfg).Run(context.Background(), scan.AllModules(), nil, 0, nil); err != nil {
		t.Fatal(err)
	}
	if rec.Len() == 0 {
		t.Fatal("recorder captured no events")
	}
	var buf bytes.Buffer
	if err := rec.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestTraceIdenticalAcrossWorkerCounts is the core determinism gate: the
// same (seed, config) must serialize to byte-identical traces whether the
// scan ran on 1, 7 or 32 workers, and across repeated runs.
func TestTraceIdenticalAcrossWorkerCounts(t *testing.T) {
	want := scanTrace(t, 1)
	for _, workers := range []int{7, 32} {
		if got := scanTrace(t, workers); !bytes.Equal(got, want) {
			t.Fatalf("trace diverged at %d workers (%d vs %d bytes)", workers, len(got), len(want))
		}
	}
	if got := scanTrace(t, 1); !bytes.Equal(got, want) {
		t.Fatal("trace diverged between two identical runs")
	}
}

// TestSampledIsPureFunction pins the sampling contract: the verdict depends
// only on (seed, address) — two recorders with the same seed agree
// everywhere, sampleOneIn=1 admits everything, and the sampled fraction is
// in the right ballpark.
func TestSampledIsPureFunction(t *testing.T) {
	a := trace.NewRecorder("a", 42, 8)
	b := trace.NewRecorder("b", 42, 8)
	all := trace.NewRecorder("c", 42, 1)
	sampled := 0
	for ip := uint64(0); ip < 10000; ip++ {
		if a.Sampled(ip) != b.Sampled(ip) {
			t.Fatalf("same-seed recorders disagree on ip %d", ip)
		}
		if !all.Sampled(ip) {
			t.Fatalf("sampleOneIn=1 rejected ip %d", ip)
		}
		if a.Sampled(ip) {
			sampled++
		}
	}
	if sampled < 10000/8/2 || sampled > 10000/8*2 {
		t.Fatalf("sampled %d of 10000 at 1-in-8, outside plausible range", sampled)
	}
	var nilRec *trace.Recorder
	if nilRec.Sampled(1) {
		t.Fatal("nil recorder sampled a target")
	}
	nilRec.Record(1, trace.Event{Kind: trace.KindProbeSent}) // must not panic
}

// TestRecorderCanonicalOrder pins the flush ordering: events recorded from
// many goroutines come back sorted by (protocol, address, port) with each
// key's events still in its producer's append order.
func TestRecorderCanonicalOrder(t *testing.T) {
	rec := trace.NewRecorder("test", 1, 1)
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Each goroutine owns four keys and appends three attempts each —
			// the one-writer-per-key discipline the pipeline guarantees.
			for k := 0; k < 4; k++ {
				ip := uint64(g*4 + k)
				for attempt := uint32(0); attempt < 3; attempt++ {
					rec.Record(ip, trace.Event{
						Kind:     trace.KindProbeSent,
						Protocol: "telnet",
						IP:       fmt.Sprintf("ip-%d", ip),
						Port:     23,
						Attempt:  attempt,
					})
				}
			}
		}(g)
	}
	wg.Wait()
	evs := rec.Events()
	if len(evs) != 16*4*3 {
		t.Fatalf("got %d events, want %d", len(evs), 16*4*3)
	}
	lastIP := ""
	for i := 0; i < len(evs); i += 3 {
		if evs[i].IP == lastIP {
			t.Fatalf("key %s not contiguous at %d", evs[i].IP, i)
		}
		lastIP = evs[i].IP
		for a := 0; a < 3; a++ {
			if evs[i+a].IP != lastIP || evs[i+a].Attempt != uint32(a) {
				t.Fatalf("append order broken at %d: %+v", i+a, evs[i+a])
			}
		}
	}
}

// TestWriteReadRoundTrip pins the artifact format: WriteJSONL then Read
// recovers the meta line and every event.
func TestWriteReadRoundTrip(t *testing.T) {
	rec := trace.NewRecorder("openhire-test", 2021, 16)
	rec.Record(7, trace.Event{Kind: trace.KindProbeSent, Protocol: "telnet",
		IP: "100.0.0.7", Port: 23, SimNS: 1500})
	rec.Record(7, trace.Event{Kind: trace.KindProbeAnswered, Protocol: "telnet",
		IP: "100.0.0.7", Port: 23, SimNS: 1500})
	rec.Record(0, trace.Event{Kind: trace.KindCampaignDay, Day: 3, Count: 11, Detail: "planned 12"})
	var buf bytes.Buffer
	if err := rec.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	meta, evs, truncated, err := trace.ReadLenient(&buf)
	if err != nil || truncated {
		t.Fatalf("ReadLenient = truncated %v, %v", truncated, err)
	}
	if meta.Binary != "openhire-test" || meta.Seed != 2021 || meta.SampleOneIn != 16 || meta.Events != 3 {
		t.Fatalf("meta round-trip = %+v", meta)
	}
	if len(evs) != 3 {
		t.Fatalf("got %d events, want 3", len(evs))
	}
	if evs[len(evs)-1].Kind != trace.KindProbeAnswered {
		t.Fatalf("canonical order lost in artifact: last event %+v", evs[len(evs)-1])
	}
	// A non-trace file must be rejected on its first record.
	if _, _, _, err := trace.ReadLenient(bytes.NewReader([]byte("{\"kind\":\"probe.sent\"}\n"))); err == nil {
		t.Fatal("ReadLenient accepted a stream without a meta line")
	}
}
