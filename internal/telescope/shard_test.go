package telescope

import (
	"bytes"
	"testing"
	"time"

	"openhire/internal/netsim"
)

// TestFlowsMutationIsolation pins the Flows contract: every returned record
// is a deep copy, so callers (the report pipelines rewrite rows in place) can
// mutate freely without corrupting the capture.
func TestFlowsMutationIsolation(t *testing.T) {
	tel := New(netsim.MustParsePrefix("44.0.0.0/8"), nil)
	recordAt(tel, 1, sampleFlow())

	first := tel.Flows()
	if len(first) != 1 {
		t.Fatalf("flows %d, want 1", len(first))
	}
	first[0].PacketCnt = 9999
	first[0].CountryCC = "XX"
	first[0].SrcIP = 0

	second := tel.Flows()
	if second[0].PacketCnt == 9999 || second[0].CountryCC == "XX" || second[0].SrcIP == 0 {
		t.Fatalf("mutating a Flows() result leaked into the capture: %+v", second[0])
	}
}

// TestDrainHandsOverAndClears pins the Drain contract: the live records are
// handed over (no copy) and the capture starts empty.
func TestDrainHandsOverAndClears(t *testing.T) {
	tel := New(netsim.MustParsePrefix("44.0.0.0/8"), nil)
	recordAt(tel, 1, sampleFlow())
	drained := tel.Drain()
	if len(drained) != 1 {
		t.Fatalf("drained %d, want 1", len(drained))
	}
	if tel.Len() != 0 || len(tel.Flows()) != 0 {
		t.Fatal("telescope not empty after Drain")
	}
	// The next window accumulates independently.
	recordAt(tel, 2, sampleFlow())
	if tel.Len() != 1 {
		t.Fatalf("post-drain capture has %d flows, want 1", tel.Len())
	}
}

// TestRecordBatchOrdinalOrder verifies that batches committed out of ordinal
// order still read back in ordinal order, and that a key colliding across
// batches merges as if ingested sequentially: the smaller ordinal's record
// survives and absorbs the other's packet count.
func TestRecordBatchOrdinalOrder(t *testing.T) {
	tel := New(netsim.MustParsePrefix("44.0.0.0/8"), nil)

	mk := func(src uint32, pkts uint32, ttl uint8) FlowTuple {
		return FlowTuple{
			Time: time.Date(2021, 4, 1, 0, 0, 0, 0, time.UTC), SrcIP: netsim.IPv4(src),
			DstIP: netsim.MustParseIPv4("44.1.1.1"), SrcPort: 40000, DstPort: 23,
			Protocol: ProtoTCP, TTL: ttl, PacketCnt: pkts,
		}
	}
	// Commit the higher ordinal range first: scheduling must not matter.
	tel.RecordBatch(2000, []FlowTuple{mk(5, 7, 64), mk(6, 1, 64)})
	tel.RecordBatch(1000, []FlowTuple{mk(1, 2, 32), mk(5, 3, 32)}) // src 5 collides

	flows := tel.Flows()
	if len(flows) != 3 {
		t.Fatalf("flows %d, want 3 (one merged)", len(flows))
	}
	wantSrc := []netsim.IPv4{1, 5, 6} // ordinal order: 1000, 1001(merged wins over 2000), 2001
	for i, want := range wantSrc {
		if flows[i].SrcIP != want {
			t.Fatalf("flow %d src %d, want %d", i, flows[i].SrcIP, want)
		}
	}
	merged := flows[1]
	if merged.PacketCnt != 10 {
		t.Fatalf("merged packet count %d, want 10", merged.PacketCnt)
	}
	if merged.TTL != 32 {
		t.Fatalf("merged record kept TTL %d; the smaller ordinal (TTL 32) must win", merged.TTL)
	}
}

// TestRecordBatchLargeUsesHeapScratch covers the >256-record path, which
// sorts in heap scratch instead of the stack arrays.
func TestRecordBatchLargeUsesHeapScratch(t *testing.T) {
	tel := New(netsim.MustParsePrefix("44.0.0.0/8"), nil)
	fts := make([]FlowTuple, 700)
	for i := range fts {
		fts[i] = FlowTuple{
			Time: time.Date(2021, 4, 1, 0, 0, 0, 0, time.UTC), SrcIP: netsim.IPv4(i),
			DstIP: netsim.MustParseIPv4("44.2.2.2"), SrcPort: uint16(1000 + i), DstPort: 1883,
			Protocol: ProtoTCP, PacketCnt: 1,
		}
	}
	tel.RecordBatch(100, fts)
	flows := tel.Flows()
	if len(flows) != 700 {
		t.Fatalf("flows %d, want 700", len(flows))
	}
	for i, ft := range flows {
		if ft.SrcIP != netsim.IPv4(i) {
			t.Fatalf("flow %d out of ordinal order: src %d", i, ft.SrcIP)
		}
	}
}

// TestFlowsCSVStableAcrossSnapshots guards the dump path the equivalence
// tests rely on: two snapshots of one telescope serialize identically.
func TestFlowsCSVStableAcrossSnapshots(t *testing.T) {
	tel := New(netsim.MustParsePrefix("44.0.0.0/8"), nil)
	fts := make([]FlowTuple, 100)
	for i := range fts {
		fts[i] = *sampleFlow()
		fts[i].SrcIP = netsim.IPv4(i * 7)
		fts[i].SrcPort = uint16(1000 + i)
	}
	tel.RecordBatch(1, fts)
	dump := func() []byte {
		var buf bytes.Buffer
		for _, ft := range tel.Flows() {
			if err := ft.WriteCSV(&buf); err != nil {
				t.Fatal(err)
			}
		}
		return buf.Bytes()
	}
	if a, b := dump(), dump(); !bytes.Equal(a, b) {
		t.Fatal("two snapshots of the same capture serialized differently")
	}
}

// TestReservePreSizesWithoutChangingCapture pins the Reserve contract: a
// pre-sized table must produce the byte-identical capture as a cold one, the
// pre-sized shards must not rehash during ingest when the hint covers the
// load, and Reserve never shrinks an index that is already wider.
func TestReservePreSizesWithoutChangingCapture(t *testing.T) {
	prefix := netsim.MustParsePrefix("44.0.0.0/8")
	const flows = 100_000

	feed := func(tel *Telescope) {
		const batch = 256
		for off := 0; off < flows; off += batch {
			fts := make([]FlowTuple, min(batch, flows-off))
			for i := range fts {
				fts[i] = *sampleFlow()
				fts[i].SrcIP = netsim.IPv4(uint32(off+i)*2654435761 + 7)
				fts[i].SrcPort = uint16(off + i)
			}
			tel.RecordBatch(uint64(off), fts)
		}
	}

	cold := New(prefix, nil)
	feed(cold)

	warm := New(prefix, nil)
	warm.Reserve(flows)
	sized := make([]int, numShards)
	for i := range warm.shards {
		sized[i] = len(warm.shards[i].slots)
	}
	feed(warm)
	for i := range warm.shards {
		if got := len(warm.shards[i].slots); got != sized[i] {
			t.Fatalf("shard %d rehashed during ingest: %d slots, reserved %d", i, got, sized[i])
		}
	}

	dump := func(tel *Telescope) []byte {
		var buf bytes.Buffer
		for _, ft := range tel.Flows() {
			if err := ft.WriteCSV(&buf); err != nil {
				t.Fatal(err)
			}
		}
		return buf.Bytes()
	}
	if a, b := dump(cold), dump(warm); !bytes.Equal(a, b) {
		t.Fatal("pre-sized capture serialized differently from cold capture")
	}

	wide := len(warm.shards[0].slots)
	warm.Reserve(1)
	if got := len(warm.shards[0].slots); got != wide {
		t.Fatalf("Reserve with a small hint shrank shard 0: %d slots, was %d", got, wide)
	}
}
