package scan

import (
	"cmp"
	"context"
	"fmt"
	"maps"
	"math"
	"slices"
	"sync"
	"time"

	"openhire/internal/checkpoint/wire"
	"openhire/internal/iot"
)

// DefaultSegmentTargets is the default commit cadence: one onCommit per this
// many (address, port) targets probed.
const DefaultSegmentTargets = 4096

// SegmentedState is the scan leg's complete resumable state. Everything else
// the scanner touches — the world, the permutation group parameters, the
// backoff schedule, the fault model — is derivable from (seed, config), so
// this is just the walk position plus the outputs accumulated so far.
//
// The state encodes deterministically (AppendState): results are kept sorted
// by (IP, Port) and are not part of the position, breaker keys are written
// sorted, and wall-clock fields are excluded, so the checkpoint bytes at a
// given segment are a pure function of (seed, config) no matter how many
// kill/resume cycles preceded it.
type SegmentedState struct {
	// Module indexes the module currently being walked; entries below it in
	// Modules are complete.
	Module int
	// Iterator is the current module's address-walk cursor. At a module
	// boundary it holds the fresh cursor the next module starts from (the
	// permutation is module-independent).
	Iterator IteratorCursor
	// BreakerHits is the current module's circuit-breaker memory: blackholed
	// addresses fed so far per /24. Reset at each module boundary.
	BreakerHits map[uint32]int
	// TargetsFed is the cumulative (address, port) pairs handed to workers,
	// mirroring what Config.Progress reported — resumed runs seed their
	// progress counter from it.
	TargetsFed uint64
	// Modules holds per-module results and stats, one entry per module
	// reached so far.
	Modules []ModuleSnapshot
}

// ModuleSnapshot is one module's accumulated output.
type ModuleSnapshot struct {
	Protocol iot.Protocol
	// Results are sorted by (IP, Port); each target yields at most one
	// result, so the order is total.
	Results []*Result
	// Stats accumulates across segments. Elapsed stays zero inside the
	// state (it is wall-clock); Run fills it only in the stats it returns.
	Stats Stats
}

// Run is the scanner's one driver: it walks every module's address
// permutation in sequence, each with the whole worker budget, in segments of
// roughly segmentTargets (address, port) pairs (0 = DefaultSegmentTargets;
// a segment always ends on an address boundary). After each segment's workers
// have drained, the segment is folded into the state and onCommit sees the
// full accumulated state. The caller persists it (and may return
// checkpoint.ErrInterrupted to stop cleanly); a non-nil error from onCommit
// aborts the run and is returned with what accumulated so far. A nil onCommit
// is the plain run: nothing observes segment boundaries, so each module is
// one segment and segmentTargets is ignored.
//
// Passing a state a previous onCommit observed as resume continues the scan
// from that segment boundary. Results and stats are a pure function of
// (seed, config) whatever the worker count, cadence or kill history: probes
// are pure per-target, the breaker is consulted in permutation order by the
// single-threaded feed (with its per-/24 memory carried across segments),
// and per-module results are kept sorted by (IP, Port).
//
// The state only ever moves at a fully probed segment boundary. When ctx is
// canceled mid-segment Run returns ctx.Err() without calling OnSegment or
// onCommit for that segment; the returned maps include the partial segment's
// results so an interrupted caller can still flush them, but the last state a
// hook saw stays resumable. A resume state whose walk cursor no walk of this
// scanner can hold is refused with ErrBadCursor before anything is probed.
func (s *Scanner) Run(ctx context.Context, modules []ProbeModule, resume *SegmentedState,
	segmentTargets int, onCommit func(*SegmentedState) error) (map[iot.Protocol][]*Result, map[iot.Protocol]Stats, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	switch {
	case onCommit == nil:
		segmentTargets = math.MaxInt
	case segmentTargets <= 0:
		segmentTargets = DefaultSegmentTargets
	}

	// Retransmission only engages on a faulted fabric. On a perfect one,
	// maxAttempts is pinned to 1 so every target is probed exactly once and
	// zero-fault runs stay byte-identical to the pre-fault scanner.
	faultModel := s.cfg.Network.Faults()
	maxAttempts := 1
	if faultModel != nil {
		maxAttempts = s.cfg.MaxAttempts
	}

	freshCursor := s.newIterator().Cursor()
	st := resume
	if st == nil {
		st = &SegmentedState{Iterator: freshCursor}
	}
	if st.BreakerHits == nil {
		st.BreakerHits = make(map[uint32]int)
	}

	elapsed := make(map[int]time.Duration, len(modules))
	for st.Module < len(modules) {
		m := modules[st.Module]
		it := s.newIterator()
		if err := it.Seek(st.Iterator); err != nil {
			return nil, nil, fmt.Errorf("scan: resume module %d: %w", st.Module, err)
		}
		for {
			segStart := time.Now()
			// The breaker works on a copy of the committed hits, so a
			// canceled segment leaves the state at its last boundary.
			var breaker *prefixBreaker
			if faultModel != nil {
				breaker = &prefixBreaker{model: faultModel, src: s.cfg.Source,
					threshold: s.cfg.BreakerThreshold, hits: maps.Clone(st.BreakerHits)}
			}
			seg := s.probeSegment(ctx, m, it, breaker, segmentTargets, maxAttempts)
			if err := ctx.Err(); err != nil {
				elapsed[st.Module] += time.Since(segStart)
				results, stats := st.collect(elapsed)
				proto := m.Protocol()
				// collect's slices alias the state: merge into a fresh one.
				results[proto] = mergeResults(slices.Clone(results[proto]), seg.results)
				sum := stats[proto]
				sum.add(seg.stats)
				sum.Elapsed = elapsed[st.Module]
				stats[proto] = sum
				return results, stats, err
			}

			if len(st.Modules) == st.Module {
				st.Modules = append(st.Modules, ModuleSnapshot{Protocol: m.Protocol()})
			}
			ms := &st.Modules[st.Module]
			if seg.fed > 0 {
				if s.cfg.OnSegment != nil {
					s.cfg.OnSegment(m.Protocol(), seg.fed, seg.results)
				}
				ms.Results = mergeResults(ms.Results, seg.results)
				st.TargetsFed += uint64(seg.fed)
			}
			ms.Stats.add(seg.stats)
			ms.Stats.Blocked = it.Blocked()
			st.Iterator = it.Cursor()
			if breaker != nil {
				st.BreakerHits = breaker.hits
			}
			elapsed[st.Module] += time.Since(segStart)
			if seg.exhausted {
				// Module boundary: advance and reset the per-module walk
				// state before committing, so a resume from this commit
				// starts the next module exactly as a fresh loop entry would.
				st.Module++
				st.Iterator = freshCursor
				st.BreakerHits = make(map[uint32]int)
			}
			if onCommit != nil {
				if err := onCommit(st); err != nil {
					// The state is already durable; hand back what accumulated so
					// far so an interrupting caller can flush partial artifacts.
					results, stats := st.collect(elapsed)
					return results, stats, err
				}
			}
			if seg.exhausted {
				break
			}
		}
	}

	results, stats := st.collect(elapsed)
	return results, stats, nil
}

// collect flattens the per-module snapshots into the maps Run returns.
func (st *SegmentedState) collect(elapsed map[int]time.Duration) (map[iot.Protocol][]*Result, map[iot.Protocol]Stats) {
	results := make(map[iot.Protocol][]*Result, len(st.Modules))
	stats := make(map[iot.Protocol]Stats, len(st.Modules))
	for i := range st.Modules {
		ms := &st.Modules[i]
		results[ms.Protocol] = ms.Results
		stt := ms.Stats
		stt.Elapsed = elapsed[i]
		stats[ms.Protocol] = stt
	}
	return results, stats
}

// AppendState writes the sweep's position: module index, walk cursor,
// breaker memory, TargetsFed and each module's deterministic stats. Results
// and the wall-clock Elapsed are not written: a daemon folds each segment's
// results as it drains, and a batch run logs them beside the checkpoint
// (AddResults puts them back). A nil state writes one byte.
func AppendState(b []byte, st *SegmentedState) []byte {
	b = wire.AppendBool(b, st != nil)
	if st == nil {
		return b
	}
	b = wire.AppendInt(b, st.Module)
	b = wire.AppendUint(b, st.Iterator.Perm.Cur)
	b = wire.AppendBool(b, st.Iterator.Perm.Done)
	b = wire.AppendUint(b, st.Iterator.Blocked)
	keys := make([]uint32, 0, len(st.BreakerHits))
	for k := range st.BreakerHits {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	b = wire.AppendInt(b, len(keys))
	for _, k := range keys {
		b = wire.AppendUint(b, uint64(k))
		b = wire.AppendInt(b, st.BreakerHits[k])
	}
	return wire.AppendSlice(wire.AppendUint(b, st.TargetsFed), st.Modules, func(b []byte, ms ModuleSnapshot) []byte {
		b = wire.AppendString(b, string(ms.Protocol))
		for _, v := range ms.Stats.counters() {
			b = wire.AppendUint(b, *v)
		}
		return b
	})
}

// ReadState decodes what AppendState wrote; a damaged payload fails r, never
// panics, and never allocates more than its own size in elements.
func ReadState(r *wire.Reader) *SegmentedState {
	if !r.Bool() {
		return nil
	}
	st := &SegmentedState{Module: r.Int()}
	st.Iterator.Perm.Cur = r.Uint()
	st.Iterator.Perm.Done = r.Bool()
	st.Iterator.Blocked = r.Uint()
	if n := r.Count(2); n > 0 {
		st.BreakerHits = make(map[uint32]int, n)
		var prev uint64
		for i := 0; i < n && r.Err() == nil; i++ {
			k := r.Uint()
			if k > 1<<32-1 || i > 0 && k <= prev {
				r.Fail("breaker key %d after %d", k, prev)
			}
			prev = k
			st.BreakerHits[uint32(k)] = r.Int()
		}
	}
	st.TargetsFed = r.Uint()
	st.Modules = wire.ReadSlice(r, 1+len(counterNames), func(r *wire.Reader) (ms ModuleSnapshot) {
		ms.Protocol = iot.Protocol(r.Str())
		for _, v := range ms.Stats.counters() {
			*v = r.Uint()
		}
		return ms
	})
	return st
}

// AddResults puts logged results back into a state ReadState decoded: each
// protocol's results join its module's snapshot, which stays sorted by
// (IP, Port). The added results need not be sorted (a log holds one sorted
// run per segment); the caller's slices are left as they are.
func (st *SegmentedState) AddResults(results map[iot.Protocol][]*Result) {
	for i := range st.Modules {
		ms := &st.Modules[i]
		add := slices.Clone(results[ms.Protocol])
		sortResults(add)
		ms.Results = mergeResults(ms.Results, add)
	}
}

// newIterator builds the (module-independent) address iterator for this
// scanner's prefix, seed and blocklist.
func (s *Scanner) newIterator() *AddressIterator {
	return NewAddressIterator(s.cfg.Prefix, s.cfg.Seed, s.cfg.Blocklist)
}

// targetBatchSize is the most (ip, port) pairs that ride one channel send.
// The feed and the workers meet at the channel once per batch instead of
// once per probe, so channel synchronization disappears from the per-probe
// cost.
const targetBatchSize = 256

// batchPool recycles target batches across segments and scans: a segment
// hands every batch it used back when it ends, and the next one's feed
// takes them up instead of allocating its own.
var batchPool = sync.Pool{New: func() any { return new([targetBatchSize]target) }}

// getBatch returns an empty batch with room for targetBatchSize targets.
func getBatch() []target { return batchPool.Get().(*[targetBatchSize]target)[:0] }

// putBatch returns a batch from getBatch to the pool.
func putBatch(b []target) { batchPool.Put((*[targetBatchSize]target)(b[:targetBatchSize])) }

// segment is what one drained segment produced, before Run folds it into
// the state.
type segment struct {
	// results are sorted by (IP, Port).
	results []*Result
	// stats holds this segment's transmissions, outcomes and breaker skips.
	stats Stats
	// fed counts the (address, port) targets drawn from the walk.
	fed int
	// exhausted reports that the walk ended inside this segment.
	exhausted bool
}

// probeSegment is the one feed → probe → fold core: it draws the next ~max
// targets from the walk on the calling goroutine, streams them in batches to
// a pool of workers, waits for the barrier and returns the segment's sorted
// results and summed stats. Nothing is sized by max: workers hand drained
// batches back through a bounded free list the feed refills from, so a
// segment of any length uses only the batches in flight, and those come
// from batchPool and go back to it when the segment ends.
//
// The hot path is contention-free: each worker counts and collects into its
// own padded shard, and the only cross-worker synchronization per batch is
// one channel receive.
func (s *Scanner) probeSegment(ctx context.Context, m ProbeModule, it *AddressIterator,
	breaker *prefixBreaker, max, maxAttempts int) segment {
	workers, batchSize := s.cfg.Workers, targetBatchSize
	if max < workers*batchSize {
		// A short segment: shrink the batches so it still spreads over the
		// whole worker budget, and start no more workers than batches.
		batchSize = (max + workers - 1) / workers
		workers = (max + batchSize - 1) / batchSize
	}

	transport, size := m.Protocol().Transport(), m.SweepSize()
	// Two batches of headroom per worker keep the feed ahead of the probes.
	batches := make(chan []target, 2*workers)
	// The free list holds every batch that can be in flight at once: the
	// queued ones, one per worker and the one being filled.
	free := make(chan []target, 3*workers+1)
	shards := make([]workerShard, workers)
	done := ctx.Done()
	var wg sync.WaitGroup
	for w := range shards {
		wg.Add(1)
		go func(shard *workerShard) {
			defer wg.Done()
			for batch := range batches {
				select {
				case <-done:
					continue // canceled: drain the feed without probing
				default:
				}
				for _, t := range batch {
					s.probeTarget(ctx, m, transport, size, t, shard, maxAttempts)
				}
				select {
				case free <- batch[:0]:
				default: // unreachable: the list has room for every batch in flight
				}
			}
		}(&shards[w])
	}

	var seg segment
	ports := m.Ports()
	trace, proto := s.cfg.OnProbe, m.Protocol()
	batch := getBatch()
	send := func() bool {
		select {
		case batches <- batch:
		case <-done:
			return false
		}
		if s.cfg.Progress != nil {
			s.cfg.Progress(uint64(len(batch)))
		}
		select {
		case batch = <-free:
		default:
			batch = getBatch()
		}
		return true
	}
feed:
	for seg.fed < max {
		ip, ok := it.Next()
		if !ok {
			seg.exhausted = true
			break
		}
		if breaker != nil && breaker.skip(ip) {
			seg.stats.BreakerSkipped += uint64(len(ports))
			if trace != nil {
				trace(ProbeEvent{Kind: ProbeBreakerSkip, Protocol: proto, IP: ip})
			}
			continue
		}
		seg.fed += len(ports)
		for _, port := range ports {
			batch = append(batch, target{ip: ip, port: port})
			if len(batch) == batchSize && !send() {
				break feed
			}
		}
	}
	if len(batch) > 0 {
		send()
	}
	close(batches)
	wg.Wait()
	putBatch(batch)
	close(free)
	for b := range free {
		putBatch(b)
	}

	// Workers collect in scheduling order, which varies with the worker
	// count; sorting makes the segment a pure function of (seed, config,
	// segment index) before any hook sees it.
	for i := range shards {
		seg.stats.add(shards[i].stats)
		seg.results = append(seg.results, shards[i].results...)
	}
	sortResults(seg.results)
	return seg
}

// sortResults orders one module's results by (IP, Port). A target yields at
// most one result, so the order is total.
func sortResults(rs []*Result) { slices.SortFunc(rs, compareResults) }

// compareResults orders two results by (IP, Port).
func compareResults(a, b *Result) int {
	if c := cmp.Compare(a.IP, b.IP); c != 0 {
		return c
	}
	return cmp.Compare(a.Port, b.Port)
}

// mergeResults merges b into a, both sorted by (IP, Port), and returns the
// sorted union in a's backing array (grown if need be): one backward pass
// that moves each element at most once. b must not share a's backing array.
func mergeResults(a, b []*Result) []*Result {
	i, j := len(a)-1, len(b)-1
	a = append(a, b...)
	for k := len(a) - 1; j >= 0; k-- {
		if i >= 0 && compareResults(a[i], b[j]) > 0 {
			a[k] = a[i]
			i--
		} else {
			a[k] = b[j]
			j--
		}
	}
	return a
}
