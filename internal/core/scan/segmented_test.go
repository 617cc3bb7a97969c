package scan

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"openhire/internal/iot"
	"openhire/internal/netsim"
	"openhire/internal/netsim/faults"
	"openhire/internal/prng"
)

// segmentedScan runs all modules through Run with a commit hook on a fresh
// world and returns the digest and stats, threading resume/commit through.
func segmentedScan(t testing.TB, workers, segment int, resume *SegmentedState,
	onCommit func(*SegmentedState) error) (string, map[iot.Protocol]Stats, error) {
	t.Helper()
	n, prefix := chaosWorld(t, "50.0.0.0/20", 200, faults.Calibrated())
	cfg := Config{
		Network:          n,
		Source:           netsim.MustParseIPv4("130.226.0.1"),
		Prefix:           prefix,
		Seed:             5,
		Workers:          workers,
		BreakerThreshold: 3,
	}
	if onCommit == nil {
		onCommit = func(*SegmentedState) error { return nil }
	}
	results, stats, err := NewScanner(cfg).Run(context.Background(),
		AllModules(), resume, segment, onCommit)
	return digestResults(results), stats, err
}

// TestSegmentedResumeFromEveryCommit kills the scan (by returning an error
// from onCommit) at each successive commit point, marshals the state through
// JSON exactly as a checkpoint would, resumes on a fresh world, and asserts
// the final output is byte-identical to the uninterrupted run.
func TestSegmentedResumeFromEveryCommit(t *testing.T) {
	golden, goldenStats, err := segmentedScan(t, 16, 200, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	var commits int
	_, _, _ = segmentedScan(t, 16, 200, nil, func(*SegmentedState) error {
		commits++
		return nil
	})
	if commits < 8 {
		t.Fatalf("only %d commits; world too small to exercise resume", commits)
	}
	stop := errors.New("stop")
	step := commits / 6
	if step == 0 {
		step = 1
	}
	for kill := 1; kill < commits; kill += step {
		var saved []byte
		seen := 0
		_, _, err := segmentedScan(t, 16, 200, nil, func(st *SegmentedState) error {
			seen++
			if seen == kill {
				var merr error
				saved, merr = json.Marshal(st)
				if merr != nil {
					t.Fatal(merr)
				}
				return stop
			}
			return nil
		})
		if !errors.Is(err, stop) {
			t.Fatalf("kill at commit %d: err = %v", kill, err)
		}
		resume := &SegmentedState{}
		if err := json.Unmarshal(saved, resume); err != nil {
			t.Fatal(err)
		}
		got, gotStats, err := segmentedScan(t, 16, 200, resume, nil)
		if err != nil {
			t.Fatalf("resume from commit %d: %v", kill, err)
		}
		if got != golden {
			t.Fatalf("resume from commit %d: results differ from uninterrupted run", kill)
		}
		if diff := statsEqual(goldenStats, gotStats); diff != "" {
			t.Fatalf("resume from commit %d: stats differ: %s", kill, diff)
		}
	}
}

// TestCancelMidSegmentResumes cancels the context from inside OnProbe, in the
// middle of a segment. The driver must return ctx.Err() without handing the
// half-probed segment to OnSegment or onCommit — a committed TargetsFed and
// cursor that ran ahead of the probes would make a resume silently skip
// targets — and must leave the last committed state untouched, breaker
// memory included, so resuming from it reproduces the uninterrupted run.
func TestCancelMidSegmentResumes(t *testing.T) {
	profile := faults.Calibrated()
	profile.BlackholeFrac = 0.25 // engage the breaker so its hits are part of the state
	const cadence = 200
	run := func(ctx context.Context, resume *SegmentedState, onProbe func(ProbeEvent),
		onSegment func(), onCommit func(*SegmentedState) error) (map[iot.Protocol][]*Result, map[iot.Protocol]Stats, error) {
		cfg := goldenConfig(t, profile, 16)
		cfg.OnProbe = onProbe
		cfg.OnSegment = func(iot.Protocol, int, []*Result) { onSegment() }
		return NewScanner(cfg).Run(ctx, AllModules(), resume, cadence, onCommit)
	}
	nop := func(*SegmentedState) error { return nil }
	golden, goldenStats, err := run(context.Background(), nil, nil, func() {}, nop)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var sent atomic.Int64
	onProbe := func(ev ProbeEvent) {
		// 2500 transmissions is past a dozen commits and short of the next.
		if ev.Kind == ProbeSent && sent.Add(1) == 2500 {
			cancel()
		}
	}
	var (
		last     *SegmentedState
		lastJSON []byte
	)
	partial, _, err := run(ctx, nil, onProbe,
		func() {
			if ctx.Err() != nil {
				t.Error("OnSegment saw a segment after cancellation")
			}
		},
		func(st *SegmentedState) error {
			if ctx.Err() != nil {
				t.Error("onCommit saw a state after cancellation")
			}
			last = st
			var merr error
			lastJSON, merr = json.Marshal(st)
			return merr
		})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled sweep returned err = %v, want context.Canceled", err)
	}
	if last == nil || last.Module >= len(AllModules()) {
		t.Fatalf("cancel did not land mid-sweep (last state %+v)", last)
	}
	if after, _ := json.Marshal(last); string(after) != string(lastJSON) {
		t.Fatal("the half-probed segment leaked into the last committed state")
	}
	committed, returned := 0, 0
	for i := range last.Modules {
		committed += len(last.Modules[i].Results)
	}
	for _, rs := range partial {
		returned += len(rs)
	}
	if returned < committed {
		t.Fatalf("canceled sweep returned %d results, fewer than the %d committed", returned, committed)
	}

	resume := &SegmentedState{}
	if err := json.Unmarshal(lastJSON, resume); err != nil {
		t.Fatal(err)
	}
	got, gotStats, err := run(context.Background(), resume, nil, func() {}, nop)
	if err != nil {
		t.Fatal(err)
	}
	if digestResults(got) != digestResults(golden) {
		t.Fatal("resume after a mid-segment cancel differs from the uninterrupted run")
	}
	if diff := statsEqual(goldenStats, gotStats); diff != "" {
		t.Fatalf("resume after a mid-segment cancel: stats differ: %s", diff)
	}
}

// TestHugeCadenceSizesNothing asserts the cadence — outside input from
// -checkpoint-every / -segment-targets — is never an allocation size: a
// math.MaxInt32 cadence on a /24 is one commit and a few batches of memory,
// where a buffer with the cadence as its capacity would ask for 16 GiB.
func TestHugeCadenceSizesNothing(t *testing.T) {
	n, prefix := chaosWorld(t, "50.0.0.0/24", 50, faults.Zero())
	s := NewScanner(Config{
		Network: n, Source: netsim.MustParseIPv4("130.226.0.1"),
		Prefix: prefix, Seed: 5, Workers: 8,
		Blocklist: netsim.NewPrefixSet(),
	})
	commits := 0
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, stats, err := s.Run(context.Background(), []ProbeModule{TelnetModule{}}, nil, math.MaxInt32,
		func(*SegmentedState) error {
			commits++
			return nil
		})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if commits != 1 {
		t.Fatalf("%d commits, want the whole /24 in one", commits)
	}
	if st := stats[iot.ProtoTelnet]; st.Probed != 512 {
		t.Fatalf("probed %d, want 512", st.Probed)
	}
	if grown := after.TotalAlloc - before.TotalAlloc; grown > 16<<20 {
		t.Fatalf("a 512-target sweep allocated %d MiB", grown>>20)
	}
}

// TestFeedAllocatesPerBatchInFlight asserts the feed recycles its target
// batches: a plain run over a dark /16 feeds four times the batches of a
// dark /18, yet allocates within the batches that can be in flight at once
// (queued, held by a worker, being filled) of what the /18 does.
func TestFeedAllocatesPerBatchInFlight(t *testing.T) {
	const workers = 64
	mallocs := func(cidr string) uint64 {
		s := NewScanner(Config{
			Network: netsim.NewNetwork(netsim.NewSimClock(netsim.ExperimentStart)),
			Source:  netsim.MustParseIPv4("130.226.0.1"),
			Prefix:  netsim.MustParsePrefix(cidr), Seed: 5, Workers: workers,
			Blocklist: netsim.NewPrefixSet(),
		})
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, stats, err := s.Run(context.Background(), []ProbeModule{TelnetModule{}}, nil, 0, nil)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if want := 2 * netsim.MustParsePrefix(cidr).Size(); stats[iot.ProtoTelnet].Negatives != want {
			t.Fatalf("%s: %d negatives, want %d", cidr, stats[iot.ProtoTelnet].Negatives, want)
		}
		return after.Mallocs - before.Mallocs
	}
	small, large := mallocs("100.0.0.0/18"), mallocs("100.0.0.0/16")
	if inFlight := uint64(3*workers + 1); large > small+inFlight {
		t.Fatalf("a dark /16 allocated %d objects against a /18's %d: %d more than the %d batches that can be in flight",
			large, small, large-small, inFlight)
	}
}

// TestRunRefusesForeignCursor asserts Run refuses, before probing anything,
// a resume cursor no walk of its permutation can hold: 0, which is not a
// group element and would never come round to the first one, and the
// modulus p and beyond, which would skip addresses. Each run has a deadline:
// a walk that never ends must fail the test, not hang it.
func TestRunRefusesForeignCursor(t *testing.T) {
	prefix := netsim.MustParsePrefix("50.0.0.0/22") // 1,024 addresses
	p := nextPrime(prefix.Size() + 1)
	// run resumes a dark Telnet sweep at c and returns how many probe events
	// it emitted and Run's error.
	run := func(c PermutationCursor) (int64, error) {
		var probes atomic.Int64
		s := NewScanner(Config{
			Network: netsim.NewNetwork(netsim.NewSimClock(netsim.ExperimentStart)),
			Source:  netsim.MustParseIPv4("130.226.0.1"),
			Prefix:  prefix, Seed: 5, Workers: 4,
			Blocklist: netsim.NewPrefixSet(),
			OnProbe:   func(ProbeEvent) { probes.Add(1) },
		})
		resume := &SegmentedState{Iterator: IteratorCursor{Perm: c}}
		errc := make(chan error, 1)
		go func() {
			_, _, err := s.Run(context.Background(), []ProbeModule{TelnetModule{}}, resume, 0, nil)
			errc <- err
		}()
		select {
		case err := <-errc:
			return probes.Load(), err
		case <-time.After(10 * time.Second):
			t.Fatalf("cursor %+v: Run still walking after 10s", c)
			return 0, nil
		}
	}
	for _, cur := range []uint64{0, p, p + 1, 1 << 40} {
		probes, err := run(PermutationCursor{Cur: cur})
		if !errors.Is(err, ErrBadCursor) {
			t.Fatalf("cursor %d: Run returned %v, want ErrBadCursor", cur, err)
		}
		if probes != 0 {
			t.Fatalf("cursor %d: %d probe events before the cursor was refused", cur, probes)
		}
	}
	// The last group element and a finished walk are still accepted.
	for _, c := range []PermutationCursor{{Cur: p - 1}, {Cur: 0, Done: true}} {
		if _, err := run(c); err != nil {
			t.Fatalf("cursor %+v refused: %v", c, err)
		}
	}
}

// TestSegmentedStateDeterministicBytes asserts the committed state's bytes
// at each cadence point are a pure function of (seed, config): two
// independent runs marshal identical JSON at every commit.
func TestSegmentedStateDeterministicBytes(t *testing.T) {
	collect := func() [][]byte {
		var states [][]byte
		_, _, err := segmentedScan(t, 16, 300, nil, func(st *SegmentedState) error {
			data, err := json.Marshal(st)
			if err != nil {
				return err
			}
			states = append(states, data)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return states
	}
	a, b := collect(), collect()
	if len(a) != len(b) {
		t.Fatalf("commit counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if string(a[i]) != string(b[i]) {
			t.Fatalf("state bytes at commit %d differ between identical runs", i)
		}
	}
}

// TestIteratorCursorRoundTrip asserts Seek(Cursor()) resumes the address
// walk exactly: the remaining sequence from a fresh iterator seeked to a
// mid-walk cursor matches the original iterator's continuation.
func TestIteratorCursorRoundTrip(t *testing.T) {
	prefix := netsim.MustParsePrefix("50.0.0.0/22")
	for _, stopAt := range []int{0, 1, 100, 701} {
		a := NewAddressIterator(prefix, 9, nil)
		for i := 0; i < stopAt; i++ {
			if _, ok := a.Next(); !ok {
				t.Fatalf("walk exhausted before %d addresses", stopAt)
			}
		}
		b := NewAddressIterator(prefix, 9, nil)
		b.Seek(a.Cursor())
		for {
			ipA, okA := a.Next()
			ipB, okB := b.Next()
			if okA != okB || ipA != ipB {
				t.Fatalf("stopAt=%d: walks diverge: (%v,%v) vs (%v,%v)",
					stopAt, ipA, okA, ipB, okB)
			}
			if !okA {
				break
			}
		}
	}
}

// TestOnSegmentDeterministicAcrossWorkers asserts the OnSegment hook's view
// is a pure function of (seed, config, segment index): the sequence of
// (protocol, target count, sorted results) tuples is identical across worker
// counts, every segment arrives sorted by (IP, Port), and hooking the run
// leaves the final results byte-identical to a bare run.
func TestOnSegmentDeterministicAcrossWorkers(t *testing.T) {
	bare, bareStats, err := segmentedScan(t, 16, 200, nil, nil)
	if err != nil {
		t.Fatal(err)
	}

	collect := func(workers int) ([]string, string, map[iot.Protocol]Stats) {
		n, prefix := chaosWorld(t, "50.0.0.0/20", 200, faults.Calibrated())
		var views []string
		cfg := Config{
			Network:          n,
			Source:           netsim.MustParseIPv4("130.226.0.1"),
			Prefix:           prefix,
			Seed:             5,
			Workers:          workers,
			BreakerThreshold: 3,
			OnSegment: func(proto iot.Protocol, targets int, results []*Result) {
				for i := 1; i < len(results); i++ {
					a, b := results[i-1], results[i]
					if a.IP > b.IP || (a.IP == b.IP && a.Port >= b.Port) {
						t.Errorf("segment %d not sorted at %d", len(views), i)
					}
				}
				data, err := json.Marshal(struct {
					Proto   iot.Protocol `json:"proto"`
					Targets int          `json:"targets"`
					Results []*Result    `json:"results"`
				}{proto, targets, results})
				if err != nil {
					t.Error(err)
				}
				views = append(views, string(data))
			},
		}
		results, stats, err := NewScanner(cfg).Run(context.Background(),
			AllModules(), nil, 200, func(*SegmentedState) error { return nil })
		if err != nil {
			t.Fatal(err)
		}
		return views, digestResults(results), stats
	}

	base, digest, stats := collect(16)
	if len(base) < 8 {
		t.Fatalf("only %d segments; world too small", len(base))
	}
	if digest != bare {
		t.Fatal("hooked run's results differ from bare run")
	}
	if diff := statsEqual(bareStats, stats); diff != "" {
		t.Fatalf("hooked run's stats differ from bare run: %s", diff)
	}
	for _, workers := range []int{1, 7} {
		views, d, _ := collect(workers)
		if d != bare {
			t.Fatalf("workers=%d: results differ", workers)
		}
		if len(views) != len(base) {
			t.Fatalf("workers=%d: %d segments, want %d", workers, len(views), len(base))
		}
		for i := range views {
			if views[i] != base[i] {
				t.Fatalf("workers=%d: segment %d view differs from workers=16", workers, i)
			}
		}
	}
}

// TestMergeResultsEqualsSort checks the segment merge against sorting the
// concatenation, over generated runs that interleave, nest and touch, with
// and without spare capacity in the accumulated run.
func TestMergeResultsEqualsSort(t *testing.T) {
	gen := prng.New(43)
	run := func(n int) []*Result {
		rs := make([]*Result, n)
		for i := range rs {
			rs[i] = &Result{IP: netsim.IPv4(gen.Intn(64)), Port: uint16(gen.Intn(4))}
		}
		sortResults(rs)
		return rs
	}
	for i := 0; i < 500; i++ {
		a, b := run(gen.Intn(20)), run(gen.Intn(20))
		if gen.Bool(0.5) {
			a = append(make([]*Result, 0, len(a)+len(b)+gen.Intn(4)), a...)
		}
		want := append(slices.Clone(a), b...)
		slices.SortStableFunc(want, compareResults)
		got := mergeResults(a, b)
		if len(got) != len(want) {
			t.Fatalf("case %d: merged %d results, want %d", i, len(got), len(want))
		}
		for k := range got {
			if compareResults(got[k], want[k]) != 0 {
				t.Fatalf("case %d: result %d is %v:%d, want %v:%d", i, k, got[k].IP, got[k].Port, want[k].IP, want[k].Port)
			}
		}
	}
}
