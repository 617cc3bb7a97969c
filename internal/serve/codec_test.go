package serve

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"reflect"
	"strings"
	"testing"

	"openhire/internal/attack"
	"openhire/internal/checkpoint"
	"openhire/internal/checkpoint/wire"
	"openhire/internal/core/correlate"
	"openhire/internal/core/scan"
	"openhire/internal/iot"
	"openhire/internal/netsim"
	"openhire/internal/obs"
	"openhire/internal/obs/tsdb"
)

// digestOf returns a well-formed digest derived from n.
func digestOf(n int) string { return obs.Digest([]byte(fmt.Sprint(n))) }

// gen builds random checkpoint members; every generator can produce nil,
// empty, small and maximal values.
type gen struct{ *rand.Rand }

func (g gen) u64() uint64 {
	switch g.Intn(4) {
	case 0:
		return 0
	case 1:
		return math.MaxUint64
	}
	return g.Uint64() >> g.Intn(64)
}

func (g gen) int() int {
	switch g.Intn(4) {
	case 0:
		return 0
	case 1:
		return math.MaxInt
	case 2:
		return -1 - g.Intn(1000)
	}
	return g.Intn(1 << 20)
}

func (g gen) name() string {
	return []string{"", "telnet", "k\x00é", "misconfig-open"}[g.Intn(4)] + fmt.Sprint(g.Intn(9))
}

func (g gen) campaign() *attack.CampaignResume {
	if g.Intn(3) == 0 {
		return nil
	}
	return &attack.CampaignResume{NextDay: g.int(), SrcState: g.u64(), EventsPlanned: g.int(), EventsRun: g.int()}
}

func (g gen) scan() *scan.SegmentedState {
	if g.Intn(3) == 0 {
		return nil
	}
	st := &scan.SegmentedState{Module: g.int(), TargetsFed: g.u64()}
	st.Iterator.Perm = scan.PermutationCursor{Cur: g.u64(), Done: g.Intn(2) == 0}
	st.Iterator.Blocked = g.u64()
	if n := g.Intn(4); n > 0 {
		st.BreakerHits = make(map[uint32]int)
		for range n {
			st.BreakerHits[g.Uint32()] = g.int()
		}
	}
	for range g.Intn(7) {
		ms := scan.ModuleSnapshot{Protocol: iot.Protocol(g.name())}
		for _, v := range scanCounters(&ms.Stats) {
			*v = g.u64()
		}
		st.Modules = append(st.Modules, ms)
	}
	return st
}

func (g gen) counts() map[string]uint64 {
	if g.Intn(3) == 0 {
		return nil
	}
	m := make(map[string]uint64)
	for range 1 + g.Intn(4) {
		m[g.name()] = g.u64()
	}
	return m
}

func (g gen) ipset() correlate.IPSet {
	var s correlate.IPSet
	for range g.Intn(50) {
		s.Add(netsim.IPv4(g.Uint32() >> g.Intn(32)))
	}
	return s
}

func (g gen) exposure() map[string]*ProtocolExposure {
	if g.Intn(3) == 0 {
		return nil
	}
	m := make(map[string]*ProtocolExposure)
	for range 1 + g.Intn(6) {
		m[g.name()] = &ProtocolExposure{Targets: g.u64(), Responded: g.u64(), Honeypots: g.u64(),
			Misconfigured: g.u64(), ByClass: g.counts()}
	}
	return m
}

func (g gen) agg() *Aggregates {
	a := &Aggregates{TargetsFed: g.u64(), ScanStats: g.counts()}
	a.Exposure = ExposureState{Sweep: g.int(), SweepsComplete: g.int(),
		Current: g.exposure(), Complete: g.exposure(), Total: g.exposure()}
	for d := range g.Intn(5) {
		row := DayTrend{Day: d, AttackEvents: g.int(), AttackSources: g.int(), TelescopeFlows: g.int(),
			TelescopePackets: g.u64()}
		if g.Intn(2) == 0 {
			row.AttacksByType = map[string]int{g.name(): g.int()}
		}
		for range g.Intn(25) {
			row.HourlyPackets = append(row.HourlyPackets, g.u64())
		}
		a.Trends.Days = append(a.Trends.Days, row)
	}
	a.Correlate = CorrelateState{Misconfigured: g.ipset(), HoneypotSources: g.ipset(), TelescopeSources: g.ipset()}
	return a
}

// tsdb generates finite floats only: NaN and ±Inf are the tsdb package's
// own round-trip cases, and DeepEqual cannot compare NaN.
func (g gen) tsdb() (*tsdb.State, string) {
	if g.Intn(3) == 0 {
		return nil, ""
	}
	db := tsdb.New(tsdb.Options{RawCapacity: 128 + g.Intn(300), RollupEvery: 30})
	for c := range int64(g.Intn(400)) {
		db.Append(c, "a", nil, g.NormFloat64())
		db.Append(c, "b", tsdb.Labels{{Key: "protocol", Value: g.name()}}, float64(g.Intn(1000)))
	}
	return db.State(), digestOf(g.Int())
}

func (g gen) checkpoint() *Checkpoint {
	c := &Checkpoint{Cycle: g.int(), Campaign: g.campaign(), Scan: g.scan(), Agg: g.agg()}
	c.TSDB, c.TSDBDigest = g.tsdb()
	if g.Intn(2) == 0 {
		c.TelescopeFiles = make(map[string]string)
		for h := range 1 + g.Intn(24) {
			c.TelescopeFiles[fmt.Sprintf("day%04d-hour%02d.ft", g.Intn(100), h)] = digestOf(h)
		}
	}
	for i := range g.Intn(5) {
		c.Checkpoints = append(c.Checkpoints, obs.CheckpointRecord{
			Name: fmt.Sprintf(cycleName, i), Bytes: int64(g.int()), Digest: digestOf(i)})
	}
	return c
}

// roundTrip encodes c, decodes it and checks the member sizes cover the
// payload.
func roundTrip(t testing.TB, c *Checkpoint) (*Checkpoint, []byte) {
	t.Helper()
	payload := c.AppendBinary(nil)
	got, members, err := DecodeCheckpoint(payload)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	total := 0
	for _, m := range members {
		total += m.Bytes
	}
	if total != len(payload) {
		t.Fatalf("member sizes sum to %d of %d payload bytes", total, len(payload))
	}
	return got, payload
}

// TestCheckpointRoundTrip asserts DecodeCheckpoint(AppendBinary(c)) == c for
// generated checkpoints, member by member: nil and present campaign and scan
// positions, done cursors, MaxUint64 counters and negative ints, nil and
// populated maps, sets, trend rows, tsdb states, file digests and records.
func TestCheckpointRoundTrip(t *testing.T) {
	g := gen{rand.New(rand.NewSource(38))}
	cases := []*Checkpoint{
		{Agg: &Aggregates{}},
		{Cycle: math.MaxInt, Agg: &Aggregates{TargetsFed: math.MaxUint64},
			Campaign: &attack.CampaignResume{NextDay: 29, SrcState: math.MaxUint64, EventsPlanned: -1, EventsRun: math.MaxInt},
			Scan: &scan.SegmentedState{Module: 6, Iterator: scan.IteratorCursor{
				Perm: scan.PermutationCursor{Cur: math.MaxUint64, Done: true}, Blocked: math.MaxUint64}},
		},
	}
	for range 300 {
		cases = append(cases, g.checkpoint())
	}
	for i, c := range cases {
		got, _ := roundTrip(t, c)
		if !reflect.DeepEqual(got, c) {
			t.Fatalf("checkpoint %d did not round-trip:\n want %+v\n got  %+v", i, c, got)
		}
	}
}

// TestCheckpointEmptyIsNil asserts empty maps, sets and slices encode
// exactly as nil ones do and decode to nil, so a restored daemon — whose
// maps start nil — writes the bytes an uninterrupted one would.
func TestCheckpointEmptyIsNil(t *testing.T) {
	empty := &Checkpoint{
		Scan: &scan.SegmentedState{BreakerHits: map[uint32]int{}, Modules: []scan.ModuleSnapshot{}},
		Agg: &Aggregates{
			Exposure: ExposureState{Current: map[string]*ProtocolExposure{"telnet": {ByClass: map[string]uint64{}}},
				Complete: map[string]*ProtocolExposure{}, Total: map[string]*ProtocolExposure{}},
			Trends:    TrendState{Days: []DayTrend{{AttacksByType: map[string]int{}, HourlyPackets: []uint64{}}}},
			Correlate: CorrelateState{Misconfigured: correlate.IPSet{}, HoneypotSources: correlate.IPSet{}, TelescopeSources: correlate.IPSet{}},
			ScanStats: map[string]uint64{},
		},
		TelescopeFiles: map[string]string{},
		Checkpoints:    []obs.CheckpointRecord{},
	}
	null := &Checkpoint{
		Scan: &scan.SegmentedState{},
		Agg: &Aggregates{
			Exposure: ExposureState{Current: map[string]*ProtocolExposure{"telnet": {}}},
			Trends:   TrendState{Days: []DayTrend{{}}},
		},
	}
	got, payload := roundTrip(t, empty)
	if _, want := roundTrip(t, null); !bytes.Equal(payload, want) {
		t.Error("empty collections encode differently from nil ones")
	}
	if !reflect.DeepEqual(got, null) {
		t.Errorf("empty collections decoded to %+v, want nil ones", got)
	}
}

// TestCheckpointOmitsScanResults asserts the scan member keeps positions,
// not results: the live state's results and wall-clock Elapsed are not
// written, so a decoded state carries neither.
func TestCheckpointOmitsScanResults(t *testing.T) {
	st := &scan.SegmentedState{Module: 1, TargetsFed: 9, Modules: []scan.ModuleSnapshot{{
		Protocol: "telnet",
		Results:  []*scan.Result{{IP: 1, Port: 23, Banner: []byte("login: ")}},
		Stats:    scan.Stats{Probed: 9, Responded: 1, Elapsed: 3},
	}}}
	got, _ := roundTrip(t, &Checkpoint{Scan: st, Agg: &Aggregates{}})
	want := scan.ModuleSnapshot{Protocol: "telnet", Stats: scan.Stats{Probed: 9, Responded: 1}}
	if len(got.Scan.Modules) != 1 || !reflect.DeepEqual(got.Scan.Modules[0], want) {
		t.Errorf("decoded module snapshot %+v, want %+v", got.Scan.Modules, want)
	}
}

// TestDecodeCheckpointRefusesDamage asserts every truncation of a payload
// and a trailing byte are errors, never a panic or a partial state.
func TestDecodeCheckpointRefusesDamage(t *testing.T) {
	g := gen{rand.New(rand.NewSource(7))}
	c := g.checkpoint()
	c.TSDB, c.TSDBDigest = g.tsdb()
	payload := c.AppendBinary(nil)
	for n := range len(payload) {
		if got, _, err := DecodeCheckpoint(payload[:n]); err == nil || got != nil {
			t.Fatalf("truncation to %d of %d bytes accepted", n, len(payload))
		}
	}
	if _, _, err := DecodeCheckpoint(append(payload, 0)); !errors.Is(err, wire.ErrMalformed) {
		t.Errorf("trailing byte: err = %v, want wire.ErrMalformed", err)
	}
}

// FuzzServeCheckpoint feeds arbitrary payloads to DecodeCheckpoint: it must
// never panic, and whatever it accepts must survive a re-encode and decode
// unchanged. The comparison is over re-encoded bytes, because a fuzzed tsdb
// float may be NaN (not DeepEqual to itself); every field is written as-is,
// so equal encodings are equal states.
func FuzzServeCheckpoint(f *testing.F) {
	g := gen{rand.New(rand.NewSource(5))}
	for range 4 {
		payload := g.checkpoint().AppendBinary(nil)
		f.Add(payload)
		f.Add(payload[:len(payload)/2])
	}
	f.Add((&Checkpoint{}).AppendBinary(nil))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		c, _, err := DecodeCheckpoint(data)
		if err != nil {
			return
		}
		payload := c.AppendBinary(nil)
		again, _, err := DecodeCheckpoint(payload)
		if err != nil {
			t.Fatalf("re-encoded accepted payload refused: %v", err)
		}
		if !bytes.Equal(again.AppendBinary(nil), payload) {
			t.Fatal("accepted payload changed across a re-encode and decode")
		}
	})
}

// TestRestoreRefusesJSONCheckpoint asserts a serve.ckpt with a JSON payload
// — what the batch legs' Save writes, and what serve wrote before its
// payload became binary — makes Restore fail with ErrPayloadFormat, naming
// the file and its format, and leaves the file untouched.
func TestRestoreRefusesJSONCheckpoint(t *testing.T) {
	dir := t.TempDir()
	if _, err := checkpoint.Save(dir, "serve", "", 11, map[string]any{"cycle": 2, "agg": &Aggregates{}}); err != nil {
		t.Fatal(err)
	}
	path := checkpoint.FileName(dir, "serve")
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(1)
	cfg.CheckpointDir = dir
	found, err := New(cfg).Restore()
	if found || !errors.Is(err, checkpoint.ErrPayloadFormat) {
		t.Fatalf("Restore = %v, %v; want checkpoint.ErrPayloadFormat", found, err)
	}
	if msg := err.Error(); !strings.Contains(msg, path) || !strings.Contains(msg, "JSON") {
		t.Errorf("error %q does not name the file and its format", msg)
	}
	after, err := os.ReadFile(path)
	if err != nil || !bytes.Equal(before, after) {
		t.Errorf("Restore changed the refused file (err %v)", err)
	}
}

// TestScanMemberHoldsPositionsOnly follows the first sweep's commits and
// asserts the scan member's size does not move with the results the live
// scanner accumulates: from the sweep's first paused segment to its last, it
// grows by at most one module snapshot per module reached (a protocol name
// and nine counters), though the live state holds every result of the sweep
// by then.
func TestScanMemberHoldsPositionsOnly(t *testing.T) {
	cfg := testConfig(9)
	cfg.CheckpointDir = t.TempDir()
	type pause struct{ bytes, modules, results int }
	var pauses []pause
	var l *Loop
	cfg.OnPublish = func(*Published) {
		if l.scanState == nil || l.agg.Exposure.Sweep > 0 {
			return
		}
		payload, _, err := checkpoint.LoadPayload(cfg.CheckpointDir, "serve", cfg.Seed, checkpoint.VersionBinary)
		if err != nil {
			t.Fatal(err)
		}
		_, members, err := DecodeCheckpoint(payload)
		if err != nil {
			t.Fatal(err)
		}
		p := pause{modules: len(l.scanState.Modules)}
		for _, ms := range l.scanState.Modules {
			p.results += len(ms.Results)
		}
		for _, m := range members {
			if m.Name == "scan" {
				p.bytes = m.Bytes
			}
		}
		pauses = append(pauses, p)
	}
	l = New(cfg)
	for l.agg.Exposure.SweepsComplete == 0 {
		if err := l.runCycle(); err != nil {
			t.Fatal(err)
		}
	}
	if len(pauses) < 2 {
		t.Fatalf("saw %d paused segments, want a sweep's first and last", len(pauses))
	}
	first, last := pauses[0], pauses[len(pauses)-1]
	if last.modules != len(l.modules) || last.results < 10 {
		t.Fatalf("last paused segment: %d of %d modules, %d live results; want all modules and at least 10",
			last.modules, len(l.modules), last.results)
	}
	// A module snapshot is a protocol name and nine counters; a counter
	// below 2^21 takes at most three bytes, and the sweep-wide counters may
	// widen by a byte each.
	const perModule = 1 + len("telnet") + scanCounterCount*3
	if bound := first.bytes + (last.modules-first.modules)*perModule + scanCounterCount; last.bytes > bound {
		t.Errorf("scan member grew from %d bytes (%d modules) to %d (%d modules, %d live results), want at most %d: results are in the checkpoint",
			first.bytes, first.modules, last.bytes, last.modules, last.results, bound)
	}
}
