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
// as FlowTuple records, the passive capture model of the UCSD /8 darknet. Its
// one producer is the darknet generator, which hands it finished flows —
// one record per source burst, already aggregated the way a CAIDA FlowTuple
// file is — through RecordBatch.
//
// The telescope keeps those batches as they were produced and never merges
// records: two records that share a 5-tuple stay two records, each with its
// own time and packet count. Flows and Drain return the batches in ascending
// ordinal order, so concurrent producers get the same capture however their
// batches interleave.
type Telescope struct {
	prefix netsim.Prefix

	mu      sync.Mutex
	batches []flowBatch
}

// flowBatch is one RecordBatch call: its producer's ordinal and its records.
type flowBatch struct {
	base uint64
	fts  []FlowTuple
}

// New builds a telescope over prefix. The geo argument is not read: the
// producer annotates sources before it records a flow.
func New(prefix netsim.Prefix, _ *geo.DB) *Telescope {
	return &Telescope{prefix: prefix}
}

// Prefix returns the observed range.
func (t *Telescope) Prefix() netsim.Prefix { return t.prefix }

// RecordBatch ingests a batch of finished flows, taking ownership of the
// backing slab: records are kept in place, never copied, and the caller must
// not touch them again. Flows and Drain order batches by ascending base
// (batches sharing a base keep their arrival order) and each batch's records
// by index, so concurrent producers that give each batch its own base (the
// parallel darknet generator uses the (protocol, day) unit index) get dumps
// that are byte-identical no matter how their batches interleave.
func (t *Telescope) RecordBatch(base uint64, fts []FlowTuple) {
	if len(fts) == 0 {
		return
	}
	t.mu.Lock()
	t.batches = append(t.batches, flowBatch{base: base, fts: fts})
	t.mu.Unlock()
}

// snapshot returns pointers to every record in ascending ordinal order and,
// when clear is set, forgets the batches.
func (t *Telescope) snapshot(clear bool) []*FlowTuple {
	t.mu.Lock()
	defer t.mu.Unlock()
	slices.SortStableFunc(t.batches, func(a, b flowBatch) int { return cmp.Compare(a.base, b.base) })
	out := make([]*FlowTuple, 0, t.lenLocked())
	for _, b := range t.batches {
		for i := range b.fts {
			out = append(out, &b.fts[i])
		}
	}
	if clear {
		t.batches = nil
	}
	return out
}

// Flows returns an isolated snapshot of the captured records in ingest
// order: every record is a deep copy, so callers may mutate the result (the
// report pipelines sort and rewrite rows) without corrupting the capture.
func (t *Telescope) Flows() []*FlowTuple {
	out := t.snapshot(false)
	cp := make([]FlowTuple, len(out))
	for i, ft := range out {
		cp[i] = *ft
		out[i] = &cp[i]
	}
	return out
}

// Drain returns the captured records in ingest order and clears the buffer —
// the per-minute file rotation the CAIDA pipeline performs (1,440 files per
// day). Unlike Flows it hands back the live records without copying: the
// telescope forgets them, ownership passes to the caller, and the next
// capture window starts empty. Records drained once are never written again:
// each later batch is a slab of its own. Use it for rotation
// (cmd/openhire-telescope's -rotate path); use Flows when the capture must
// keep accumulating. A consumer that needs only a day's sums, sources and
// encoded records need not record the day at all: the serve daemon folds
// its days with the darknet generator's FoldDay instead.
func (t *Telescope) Drain() []*FlowTuple {
	return t.snapshot(true)
}

// lenLocked counts the held records; the caller holds t.mu.
func (t *Telescope) lenLocked() int {
	n := 0
	for _, b := range t.batches {
		n += len(b.fts)
	}
	return n
}

// Len returns the number of flow records currently held.
func (t *Telescope) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.lenLocked()
}

// Stats is a cheap counter snapshot of the capture — the observability
// layer's view without materializing (or copying) the flows themselves.
type Stats struct {
	// Flows is the number of FlowTuple records held.
	Flows int
	// Packets is the packet total across those flows.
	Packets uint64
}

// Stats sums the held batches under the telescope's lock, so it is safe to
// call while ingest is running; it is a consistent total only once writers
// have quiesced.
func (t *Telescope) Stats() Stats {
	t.mu.Lock()
	defer t.mu.Unlock()
	var st Stats
	for _, b := range t.batches {
		st.Flows += len(b.fts)
		for i := range b.fts {
			st.Packets += uint64(b.fts[i].PacketCnt)
		}
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

// PartitionByHour splits flows into per-hour groups from start: slot i holds
// the flows with start+i h <= Time < start+(i+1) h, each group preserving the
// input's relative order, and flows outside [start, start+hours h) are
// dropped. It counts each hour first and cuts the slots from one exact-size
// array; each slot's capacity ends where the next one begins, so an append to
// a slot never writes into its neighbour.
func PartitionByHour(flows []*FlowTuple, start time.Time, hours int) [][]*FlowTuple {
	from := start.UnixNano()
	hourOf := func(ft *FlowTuple) (int, bool) {
		// From ft.UnixNano >= from on, the wrapped difference is exact.
		h := uint64(ft.UnixNano-from) / uint64(time.Hour)
		return int(h), ft.UnixNano >= from && h < uint64(hours)
	}
	counts, n := make([]int, hours), 0
	for _, ft := range flows {
		if h, ok := hourOf(ft); ok {
			counts[h]++
			n++
		}
	}
	out, all := make([][]*FlowTuple, hours), make([]*FlowTuple, n)
	for h, c := range counts {
		if c > 0 { // an empty hour stays nil
			out[h], all = all[:0:c], all[c:]
		}
	}
	for _, ft := range flows {
		if h, ok := hourOf(ft); ok {
			out[h] = append(out[h], ft)
		}
	}
	return out
}
