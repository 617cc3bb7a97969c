package serve

import (
	"fmt"
	"sort"

	"openhire/internal/attack"
	"openhire/internal/checkpoint/wire"
	"openhire/internal/core/correlate"
	"openhire/internal/core/scan"
	"openhire/internal/iot"
	"openhire/internal/obs"
	"openhire/internal/obs/tsdb"
)

// Checkpoint is the daemon's durable state, committed at every cycle
// boundary where all three legs are quiescent. The worlds are rebuilt by
// replaying construction (pure functions of seed and month/sweep index), so
// the state is just the resumable leg positions plus the aggregates. It is
// written as a typed binary payload (AppendBinary, DecodeCheckpoint); the
// JSON tags serve openhire-inspect's rendering of a decoded file.
type Checkpoint struct {
	// Cycle is the number of completed cycles.
	Cycle int `json:"cycle"`
	// Campaign is the attack scheduler's position (nil at month boundary).
	Campaign *attack.CampaignResume `json:"campaign,omitempty"`
	// Scan is the segmented scanner's position (nil between sweeps). Only
	// positions are written: the module results were folded into Agg as
	// their segments drained, so a decoded state carries none.
	Scan *scan.SegmentedState `json:"scan,omitempty"`
	// Agg is the complete derived state.
	Agg *Aggregates `json:"agg"`
	// TSDB is the sim-deterministic time-series state at this cycle, the
	// source of truth on restore. TSDBDigest is the standalone
	// serve-tsdb.ckpt file's content digest; Restore rewrites that file
	// when it disagrees (a kill landed between the two renames).
	TSDB       *tsdb.State `json:"tsdb,omitempty"`
	TSDBDigest string      `json:"tsdb_digest,omitempty"`
	// TelescopeFiles maps persisted hourly capture file names to content
	// digests, for the run manifest.
	TelescopeFiles map[string]string `json:"telescope_files,omitempty"`
	// Checkpoints records every serve.ckpt committed before this one (a
	// file cannot carry its own digest; Restore appends the loaded file's).
	Checkpoints []obs.CheckpointRecord `json:"checkpoints,omitempty"`
}

// Member is one payload member's encoded size.
type Member struct {
	Name  string
	Bytes int
}

// checkpointMembers is the payload layout: each member's encoder and
// decoder, in file order. Empty maps and slices encode as nil ones do and
// decode to nil.
var checkpointMembers = []struct {
	name  string
	write func([]byte, *Checkpoint) []byte
	read  func(*wire.Reader, *Checkpoint)
}{
	{"cycle",
		func(b []byte, c *Checkpoint) []byte { return wire.AppendInt(b, c.Cycle) },
		func(r *wire.Reader, c *Checkpoint) { c.Cycle = r.Int() }},
	{"campaign",
		func(b []byte, c *Checkpoint) []byte { return appendCampaign(b, c.Campaign) },
		func(r *wire.Reader, c *Checkpoint) { c.Campaign = readCampaign(r) }},
	{"scan",
		func(b []byte, c *Checkpoint) []byte { return appendScan(b, c.Scan) },
		func(r *wire.Reader, c *Checkpoint) { c.Scan = readScan(r) }},
	{"agg",
		func(b []byte, c *Checkpoint) []byte { return c.Agg.appendBinary(b) },
		func(r *wire.Reader, c *Checkpoint) { c.Agg = readAggregates(r) }},
	{"tsdb",
		func(b []byte, c *Checkpoint) []byte {
			b = wire.AppendBool(b, c.TSDB != nil)
			if c.TSDB == nil {
				return b
			}
			return wire.AppendDigest(c.TSDB.AppendBinary(b), c.TSDBDigest)
		},
		func(r *wire.Reader, c *Checkpoint) {
			if r.Bool() {
				c.TSDB = tsdb.ReadState(r)
				c.TSDBDigest = r.Digest()
			}
		}},
	{"telescope_files",
		func(b []byte, c *Checkpoint) []byte { return appendMap(b, c.TelescopeFiles, wire.AppendDigest) },
		func(r *wire.Reader, c *Checkpoint) {
			c.TelescopeFiles = readMap(r, wire.DigestLen, (*wire.Reader).Digest)
		}},
	{"checkpoints",
		func(b []byte, c *Checkpoint) []byte {
			b = wire.AppendInt(b, len(c.Checkpoints))
			for _, rec := range c.Checkpoints {
				b = wire.AppendString(b, rec.Name)
				b = wire.AppendInt64(b, rec.Bytes)
				b = wire.AppendDigest(b, rec.Digest)
			}
			return b
		},
		func(r *wire.Reader, c *Checkpoint) {
			n := r.Count(2 + wire.DigestLen)
			if n == 0 {
				return
			}
			c.Checkpoints = make([]obs.CheckpointRecord, n)
			for i := range c.Checkpoints {
				c.Checkpoints[i] = obs.CheckpointRecord{Name: r.Str(), Bytes: r.Int64(), Digest: r.Digest()}
			}
		}},
}

// AppendBinary appends the checkpoint's payload.
func (c *Checkpoint) AppendBinary(b []byte) []byte {
	for _, m := range checkpointMembers {
		b = m.write(b, c)
	}
	return b
}

// DecodeCheckpoint decodes a serve.ckpt payload and reports each member's
// encoded size. A damaged payload is an error, never a panic, and never
// allocates more than its own size in elements.
func DecodeCheckpoint(payload []byte) (*Checkpoint, []Member, error) {
	r := wire.NewReader(payload)
	c := &Checkpoint{}
	members := make([]Member, len(checkpointMembers))
	for i, m := range checkpointMembers {
		start := r.Offset()
		m.read(r, c)
		members[i] = Member{Name: m.name, Bytes: r.Offset() - start}
	}
	if err := r.Close(); err != nil {
		return nil, nil, fmt.Errorf("serve checkpoint: %w", err)
	}
	return c, members, nil
}

func appendCampaign(b []byte, cr *attack.CampaignResume) []byte {
	b = wire.AppendBool(b, cr != nil)
	if cr == nil {
		return b
	}
	b = wire.AppendInt(b, cr.NextDay)
	b = wire.AppendUint(b, cr.SrcState)
	b = wire.AppendInt(b, cr.EventsPlanned)
	return wire.AppendInt(b, cr.EventsRun)
}

func readCampaign(r *wire.Reader) *attack.CampaignResume {
	if !r.Bool() {
		return nil
	}
	return &attack.CampaignResume{NextDay: r.Int(), SrcState: r.Uint(), EventsPlanned: r.Int(), EventsRun: r.Int()}
}

// appendScan writes the sweep's position: module index, walk cursor,
// breaker memory, TargetsFed and each module's deterministic stats. Results
// and the wall-clock Elapsed are not written.
func appendScan(b []byte, st *scan.SegmentedState) []byte {
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
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	b = wire.AppendInt(b, len(keys))
	for _, k := range keys {
		b = wire.AppendUint(b, uint64(k))
		b = wire.AppendInt(b, st.BreakerHits[k])
	}
	b = wire.AppendUint(b, st.TargetsFed)
	b = wire.AppendInt(b, len(st.Modules))
	for i := range st.Modules {
		ms := &st.Modules[i]
		b = wire.AppendString(b, string(ms.Protocol))
		for _, v := range scanCounters(&ms.Stats) {
			b = wire.AppendUint(b, *v)
		}
	}
	return b
}

// scanCounterCount is how many stat fields a module snapshot writes.
const scanCounterCount = 9

// scanCounters lists a module's deterministic stat fields in payload order.
func scanCounters(s *scan.Stats) [scanCounterCount]*uint64 {
	return [scanCounterCount]*uint64{&s.Probed, &s.Blocked, &s.Responded, &s.Timeouts, &s.Resets,
		&s.Partials, &s.Negatives, &s.Retransmits, &s.BreakerSkipped}
}

func readScan(r *wire.Reader) *scan.SegmentedState {
	if !r.Bool() {
		return nil
	}
	st := &scan.SegmentedState{Module: r.Int()}
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
	if n := r.Count(1 + scanCounterCount); n > 0 {
		st.Modules = make([]scan.ModuleSnapshot, n)
		for i := range st.Modules {
			ms := &st.Modules[i]
			ms.Protocol = iot.Protocol(r.Str())
			for _, v := range scanCounters(&ms.Stats) {
				*v = r.Uint()
			}
		}
	}
	return st
}

// appendBinary writes the aggregates; a nil receiver writes the empty state.
func (a *Aggregates) appendBinary(b []byte) []byte {
	if a == nil {
		a = &Aggregates{}
	}
	ex := &a.Exposure
	b = wire.AppendInt(b, ex.Sweep)
	b = wire.AppendInt(b, ex.SweepsComplete)
	for _, t := range [...]map[string]*ProtocolExposure{ex.Current, ex.Complete, ex.Total} {
		b = appendMap(b, t, func(b []byte, e *ProtocolExposure) []byte { return e.appendBinary(b) })
	}
	b = wire.AppendInt(b, len(a.Trends.Days))
	for i := range a.Trends.Days {
		b = a.Trends.Days[i].appendBinary(b)
	}
	b = a.Correlate.Misconfigured.AppendBinary(b)
	b = a.Correlate.HoneypotSources.AppendBinary(b)
	b = a.Correlate.TelescopeSources.AppendBinary(b)
	b = wire.AppendUint(b, a.TargetsFed)
	return appendMap(b, a.ScanStats, wire.AppendUint)
}

func readAggregates(r *wire.Reader) *Aggregates {
	a := &Aggregates{}
	ex := &a.Exposure
	ex.Sweep = r.Int()
	ex.SweepsComplete = r.Int()
	for _, t := range [...]*map[string]*ProtocolExposure{&ex.Current, &ex.Complete, &ex.Total} {
		*t = readMap(r, 5, readProtocolExposure)
	}
	// A day is at least seven one-byte uvarints.
	if n := r.Count(7); n > 0 {
		a.Trends.Days = make([]DayTrend, n)
		for i := range a.Trends.Days {
			a.Trends.Days[i] = readDayTrend(r)
		}
	}
	a.Correlate.Misconfigured = correlate.ReadIPSet(r)
	a.Correlate.HoneypotSources = correlate.ReadIPSet(r)
	a.Correlate.TelescopeSources = correlate.ReadIPSet(r)
	a.TargetsFed = r.Uint()
	a.ScanStats = readMap(r, 1, (*wire.Reader).Uint)
	return a
}

// appendBinary writes the protocol's counts; a nil entry writes zeros.
func (e *ProtocolExposure) appendBinary(b []byte) []byte {
	if e == nil {
		e = &ProtocolExposure{}
	}
	b = wire.AppendUint(b, e.Targets)
	b = wire.AppendUint(b, e.Responded)
	b = wire.AppendUint(b, e.Honeypots)
	b = wire.AppendUint(b, e.Misconfigured)
	return appendMap(b, e.ByClass, wire.AppendUint)
}

func readProtocolExposure(r *wire.Reader) *ProtocolExposure {
	return &ProtocolExposure{
		Targets:       r.Uint(),
		Responded:     r.Uint(),
		Honeypots:     r.Uint(),
		Misconfigured: r.Uint(),
		ByClass:       readMap(r, 1, (*wire.Reader).Uint),
	}
}

func (d *DayTrend) appendBinary(b []byte) []byte {
	b = wire.AppendInt(b, d.Day)
	b = wire.AppendInt(b, d.AttackEvents)
	b = appendMap(b, d.AttacksByType, wire.AppendInt)
	b = wire.AppendInt(b, d.AttackSources)
	b = wire.AppendInt(b, d.TelescopeFlows)
	b = wire.AppendUint(b, d.TelescopePackets)
	b = wire.AppendInt(b, len(d.HourlyPackets))
	for _, p := range d.HourlyPackets {
		b = wire.AppendUint(b, p)
	}
	return b
}

func readDayTrend(r *wire.Reader) DayTrend {
	d := DayTrend{
		Day:           r.Int(),
		AttackEvents:  r.Int(),
		AttacksByType: readMap(r, 1, (*wire.Reader).Int),
	}
	d.AttackSources = r.Int()
	d.TelescopeFlows = r.Int()
	d.TelescopePackets = r.Uint()
	if n := r.Count(1); n > 0 {
		d.HourlyPackets = make([]uint64, n)
		for i := range d.HourlyPackets {
			d.HourlyPackets[i] = r.Uint()
		}
	}
	return d
}

// appendMap writes m's entries in sorted key order, each value by appendV.
func appendMap[V any](b []byte, m map[string]V, appendV func([]byte, V) []byte) []byte {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	b = wire.AppendInt(b, len(keys))
	for _, k := range keys {
		b = wire.AppendString(b, k)
		b = appendV(b, m[k])
	}
	return b
}

// readMap decodes a map appendMap wrote, whose values each encode to at
// least minV bytes; keys must be strictly ascending. Empty decodes to nil.
func readMap[V any](r *wire.Reader, minV int, readV func(*wire.Reader) V) map[string]V {
	n := r.Count(1 + minV)
	if n == 0 {
		return nil
	}
	m := make(map[string]V, n)
	var prev string
	for i := 0; i < n && r.Err() == nil; i++ {
		k := r.Str()
		if i > 0 && k <= prev {
			r.Fail("map key %q after %q", k, prev)
		}
		prev = k
		m[k] = readV(r)
	}
	return m
}
