package telescope

import (
	"cmp"
	"slices"
	"sync"
	"time"

	"openhire/internal/geo"
	"openhire/internal/iot"
	"openhire/internal/netsim"
)

// Telescope is the capture of a routed-but-dark prefix: unsolicited traffic
// aggregated into FlowTuple records, the passive capture model of the UCSD
// /8 darknet. Its one producer is the darknet generator, which hands it
// finished flows through RecordBatch.
//
// The flow table is hash-sharded: each flow key maps to one of numShards
// open-addressing tables with its own lock, so the parallel darknet
// generator's workers never serialize on a single mutex. Every flow carries
// its producer's ordinal; Flows and Drain merge the shards back into
// ascending-ordinal order.
type Telescope struct {
	prefix netsim.Prefix
	shards [numShards]flowShard
}

// numShards is the flow-table shard count. 64 keeps the per-shard lock
// essentially uncontended at the worker counts the replay uses while the
// array of shard headers still fits in a few cache lines.
const numShards = 64

// flowShard is one lock-striped slice of the flow table: an open-addressing
// index over an insertion-ordered entry slab. Padded so adjacent shard
// headers do not share a cache line under concurrent ingest.
type flowShard struct {
	mu      sync.Mutex
	entries []flowEntry
	slots   []int32 // entry index + 1; 0 = empty
	mask    uint64
	_       [64]byte
}

// flowEntry is one aggregated flow plus its packed key and merge ordinal.
type flowEntry struct {
	k0, k1 uint64
	seq    uint64
	ft     *FlowTuple
}

// flowKey aggregates packets of one flow within the capture window.
type flowKey struct {
	src, dst     netsim.IPv4
	sport, dport uint16
	proto        uint8
}

// pack flattens the key into two words for the open-addressing tables.
func (k flowKey) pack() (uint64, uint64) {
	k0 := uint64(k.src)<<32 | uint64(k.dst)
	k1 := uint64(k.sport)<<24 | uint64(k.dport)<<8 | uint64(k.proto)
	return k0, k1
}

// mix64 is the SplitMix64 finalizer, used to hash packed flow keys.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New builds a telescope over prefix. The geo argument is not read: the
// producer annotates sources before it records a flow.
func New(prefix netsim.Prefix, _ *geo.DB) *Telescope {
	return &Telescope{prefix: prefix}
}

// Prefix returns the observed range.
func (t *Telescope) Prefix() netsim.Prefix { return t.prefix }

// insert adds or merges one flow under the shard lock. The caller computes
// the packed key and hash; ft ownership passes to the telescope. When two
// ordinals collide on one key the smaller ordinal's record wins and absorbs
// the other's packet count, so the merged table is a pure function of the
// flow set — independent of arrival interleaving.
func (s *flowShard) insert(k0, k1, h, seq uint64, ft *FlowTuple) {
	if s.slots == nil {
		s.grow(512)
	}
	for i := h & s.mask; ; i = (i + 1) & s.mask {
		ref := s.slots[i]
		if ref == 0 {
			if uint64(len(s.entries))*4 >= uint64(len(s.slots))*3 {
				s.grow(uint64(len(s.slots)) * 2)
				s.insert(k0, k1, h, seq, ft)
				return
			}
			s.entries = append(s.entries, flowEntry{k0: k0, k1: k1, seq: seq, ft: ft})
			s.slots[i] = int32(len(s.entries))
			return
		}
		e := &s.entries[ref-1]
		if e.k0 == k0 && e.k1 == k1 {
			if seq < e.seq {
				ft.PacketCnt += e.ft.PacketCnt
				e.ft = ft
				e.seq = seq
			} else {
				e.ft.PacketCnt += ft.PacketCnt
			}
			return
		}
	}
}

// grow rebuilds the slot index at the new power-of-two size and reserves
// entry capacity for the 3/4 load the index admits, so insert's append never
// reallocates (entry copies carry pointer write barriers, which showed up in
// the batch-ingest profile).
func (s *flowShard) grow(size uint64) {
	s.slots = make([]int32, size)
	s.mask = size - 1
	if want := int(size - size/4); cap(s.entries) < want {
		ne := make([]flowEntry, len(s.entries), want)
		copy(ne, s.entries)
		s.entries = ne
	}
	for idx := range s.entries {
		e := &s.entries[idx]
		h := mix64(e.k0 ^ mix64(e.k1))
		for i := h & s.mask; ; i = (i + 1) & s.mask {
			if s.slots[i] == 0 {
				s.slots[i] = int32(idx + 1)
				break
			}
		}
	}
}

// Reserve pre-sizes the flow table for an expected number of distinct flows,
// spreading the hint evenly across shards and sizing each slot index so the
// expected entries stay under the 3/4 load factor insert enforces. Producers
// that know their volume up front (the darknet generator plans flow counts
// per day before emitting anything) skip the doubling rehashes a cold table
// pays while filling; growth past the hint still works exactly as before —
// grow rehashes the shard in place at double the size. Reserve never
// shrinks, and calling it on a populated telescope only ever widens shards.
func (t *Telescope) Reserve(flows int) {
	if flows <= 0 {
		return
	}
	per := uint64(flows)/numShards + 1
	size := uint64(512)
	for size*3 < per*4 {
		size *= 2
	}
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.Lock()
		if uint64(len(s.slots)) < size {
			s.grow(size)
		}
		s.mu.Unlock()
	}
}

// RecordBatch ingests a batch of pre-built flows, taking ownership of the
// backing slab: records are indexed in place, never copied, and the caller
// must not touch them again. Record i receives ordinal base+i, and Flows and
// Drain return ascending-ordinal order, so concurrent producers that carve
// disjoint ordinal ranges (the parallel darknet generator gives each
// (protocol, day) unit its own range) get dumps that are byte-identical
// no matter how their batches interleave. When one key appears under two
// ordinals, the smaller ordinal's record wins and absorbs the other's packet
// count — the same outcome sequential ingest in ordinal order would produce.
func (t *Telescope) RecordBatch(base uint64, fts []FlowTuple) {
	if len(fts) == 0 {
		return
	}
	// Counting-sort the batch by shard so each shard lock is acquired once
	// per batch instead of once per record. Placement scans records in batch
	// order, so within a shard ordinals stay ascending. Batches up to 256
	// records (the darknet generator's flush size) sort in stack scratch.
	var hsArr [256]uint64
	var orderArr [256]int32
	var hs []uint64
	var order []int32
	if len(fts) <= len(hsArr) {
		hs, order = hsArr[:len(fts)], orderArr[:len(fts)]
	} else {
		hs = make([]uint64, len(fts))
		order = make([]int32, len(fts))
	}
	var count [numShards]int32
	for i := range fts {
		k0, k1 := flowKey{src: fts[i].SrcIP, dst: fts[i].DstIP, sport: fts[i].SrcPort,
			dport: fts[i].DstPort, proto: fts[i].Protocol}.pack()
		hs[i] = mix64(k0 ^ mix64(k1))
		count[hs[i]>>(64-6)]++
	}
	var offset [numShards + 1]int32
	for s := 0; s < numShards; s++ {
		offset[s+1] = offset[s] + count[s]
	}
	var fill [numShards]int32
	for i := range fts {
		s := hs[i] >> (64 - 6)
		order[offset[s]+fill[s]] = int32(i)
		fill[s]++
	}
	for s := 0; s < numShards; s++ {
		if count[s] == 0 {
			continue
		}
		shard := &t.shards[s]
		shard.mu.Lock()
		for _, i := range order[offset[s]:offset[s+1]] {
			ft := &fts[i]
			k0, k1 := flowKey{src: ft.SrcIP, dst: ft.DstIP, sport: ft.SrcPort,
				dport: ft.DstPort, proto: ft.Protocol}.pack()
			shard.insert(k0, k1, hs[i], base+uint64(i), ft)
		}
		shard.mu.Unlock()
	}
}

// seqFlow is one gathered table entry: its merge ordinal and its record.
type seqFlow struct {
	seq uint64
	ft  *FlowTuple
}

// gather collects every entry across the shards in ascending ordinal order,
// emptying each shard as it is read when clear is set. Flows and Drain
// order their output here.
func (t *Telescope) gather(clear bool) []seqFlow {
	all := make([]seqFlow, 0, t.Len())
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.Lock()
		for j := range s.entries {
			all = append(all, seqFlow{seq: s.entries[j].seq, ft: s.entries[j].ft})
		}
		if clear {
			s.entries = nil
			s.slots = nil
		}
		s.mu.Unlock()
	}
	return sortBySeq(all)
}

// radixMin is the entry count below which a comparison sort beats setting up
// the radix passes.
const radixMin = 256

// sortBySeq orders all by ascending ordinal and returns the ordered slice
// (all itself or a buffer of the same length). The sort is stable: entries
// sharing an ordinal keep their gather order.
//
// Large inputs take an LSD radix sort over the ordinal's bytes, skipping
// every byte position on which all ordinals agree. Ordinals are structured —
// the darknet generator's are (unit+1)<<40 + i — so a day differs in three or
// four of the eight positions, and each
// remaining pass is two linear sweeps with no comparisons.
func sortBySeq(all []seqFlow) []seqFlow {
	if len(all) < radixMin {
		slices.SortStableFunc(all, func(a, b seqFlow) int { return cmp.Compare(a.seq, b.seq) })
		return all
	}
	var differ uint64
	for i := range all {
		differ |= all[i].seq ^ all[0].seq
	}
	src, dst := all, make([]seqFlow, len(all))
	for shift := 0; shift < 64; shift += 8 {
		if differ>>shift&0xff == 0 {
			continue
		}
		var next [256]int
		for i := range src {
			next[src[i].seq>>shift&0xff]++
		}
		pos := 0
		for d, n := range next {
			next[d] = pos
			pos += n
		}
		for i := range src {
			d := src[i].seq >> shift & 0xff
			dst[next[d]] = src[i]
			next[d]++
		}
		src, dst = dst, src
	}
	return src
}

// snapshot returns the gathered records in ascending ordinal order.
func (t *Telescope) snapshot(clear bool) []*FlowTuple {
	all := t.gather(clear)
	out := make([]*FlowTuple, len(all))
	for i := range all {
		out[i] = all[i].ft
	}
	return out
}

// Flows returns an isolated snapshot of the captured records in ingest
// order: every record is a deep copy, so callers may mutate the result (the
// report pipelines sort and rewrite rows) without corrupting the capture.
func (t *Telescope) Flows() []*FlowTuple {
	out := t.snapshot(false)
	for i, ft := range out {
		cp := *ft
		out[i] = &cp
	}
	return out
}

// Drain returns the captured records in ingest order and clears the buffer —
// the per-minute file rotation the CAIDA pipeline performs (1,440 files per
// day). Unlike Flows it hands back the live records without copying: the
// telescope forgets them, ownership passes to the caller, and the next
// capture window starts empty. Use it for rotation (cmd/openhire-telescope's
// -rotate path); use Flows when the capture must keep accumulating.
func (t *Telescope) Drain() []*FlowTuple {
	return t.snapshot(true)
}

// Len returns the number of aggregated flows currently held.
func (t *Telescope) Len() int {
	n := 0
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.Lock()
		n += len(s.entries)
		s.mu.Unlock()
	}
	return n
}

// Stats is a cheap counter snapshot of the live flow table, read shard by
// shard under the existing stripe locks — the observability layer's view of
// the capture without materializing (or copying) the flows themselves.
type Stats struct {
	// Flows is the number of aggregated FlowTuple records held.
	Flows int
	// Packets is the packet total across those flows.
	Packets uint64
}

// Stats sums the live shards. Like Len it takes each shard lock once, so it
// is safe to call while ingest is running; call it between phases (it is a
// consistent total only once writers have quiesced).
func (t *Telescope) Stats() Stats {
	var st Stats
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.Lock()
		st.Flows += len(s.entries)
		for j := range s.entries {
			st.Packets += uint64(s.entries[j].ft.PacketCnt)
		}
		s.mu.Unlock()
	}
	return st
}

// Counters flattens the snapshot for the metrics registry and run manifest.
func (st Stats) Counters() map[string]uint64 {
	return map[string]uint64{
		"flows":   uint64(st.Flows),
		"packets": st.Packets,
	}
}

// ProtocolOfPort maps a destination port to the study's protocol buckets.
func ProtocolOfPort(port uint16) (iot.Protocol, bool) {
	switch port {
	case 23, 2323:
		return iot.ProtoTelnet, true
	case 1883:
		return iot.ProtoMQTT, true
	case 5683:
		return iot.ProtoCoAP, true
	case 5672:
		return iot.ProtoAMQP, true
	case 5222, 5269:
		return iot.ProtoXMPP, true
	case 1900:
		return iot.ProtoUPnP, true
	default:
		return "", false
	}
}

// ProtocolStats is one Table 8 row: per-protocol telescope traffic.
type ProtocolStats struct {
	Protocol  iot.Protocol
	Packets   uint64
	Flows     int
	UniqueIPs int
}

// AggregateByProtocol buckets flows into the study's six protocols,
// sorted by descending packet count (Table 8 ordering).
func AggregateByProtocol(flows []*FlowTuple) []ProtocolStats {
	type agg struct {
		packets uint64
		flows   int
		ips     map[netsim.IPv4]struct{}
	}
	byProto := make(map[iot.Protocol]*agg)
	for _, ft := range flows {
		proto, ok := ProtocolOfPort(ft.DstPort)
		if !ok {
			continue
		}
		a := byProto[proto]
		if a == nil {
			a = &agg{ips: make(map[netsim.IPv4]struct{})}
			byProto[proto] = a
		}
		a.packets += uint64(ft.PacketCnt)
		a.flows++
		a.ips[ft.SrcIP] = struct{}{}
	}
	out := make([]ProtocolStats, 0, len(byProto))
	for p, a := range byProto {
		out = append(out, ProtocolStats{Protocol: p, Packets: a.packets,
			Flows: a.flows, UniqueIPs: len(a.ips)})
	}
	slices.SortFunc(out, func(a, b ProtocolStats) int {
		if c := cmp.Compare(b.Packets, a.Packets); c != 0 {
			return c
		}
		return cmp.Compare(a.Protocol, b.Protocol)
	})
	return out
}

// UniqueSources returns the distinct source addresses across flows.
func UniqueSources(flows []*FlowTuple) []netsim.IPv4 {
	seen := make(map[netsim.IPv4]struct{})
	var out []netsim.IPv4
	for _, ft := range flows {
		if _, ok := seen[ft.SrcIP]; !ok {
			seen[ft.SrcIP] = struct{}{}
			out = append(out, ft.SrcIP)
		}
	}
	return out
}

// HourlyBuckets splits flows into hour buckets from start, for the daily
// series behind Figure 8's telescope counterpart.
func HourlyBuckets(flows []*FlowTuple, start time.Time, hours int) []uint64 {
	out := make([]uint64, hours)
	for _, ft := range flows {
		// Duration division truncates toward zero, so a flow inside
		// (start-1h, start) would otherwise alias into bucket 0.
		if ft.Time.Before(start) {
			continue
		}
		h := int(ft.Time.Sub(start) / time.Hour)
		if h >= 0 && h < hours {
			out[h] += uint64(ft.PacketCnt)
		}
	}
	return out
}

// PartitionByHour splits flows into per-hour groups from start: slot i holds
// the flows with start+i h <= Time < start+(i+1) h, each group preserving the
// input's relative order. Flows outside [start, start+hours h) are dropped —
// same windowing as HourlyBuckets, but the flows themselves survive for
// downstream per-hour aggregation (the serve daemon's rotation cadence needs
// the tuples, not just the packet totals).
func PartitionByHour(flows []*FlowTuple, start time.Time, hours int) [][]*FlowTuple {
	out := make([][]*FlowTuple, hours)
	for _, ft := range flows {
		h := int(ft.Time.Sub(start) / time.Hour)
		if h >= 0 && h < hours && !ft.Time.Before(start) {
			out[h] = append(out[h], ft)
		}
	}
	return out
}
