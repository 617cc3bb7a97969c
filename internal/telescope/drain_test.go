package telescope

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"openhire/internal/netsim"
)

// TestOrderedDrainMatchesReferenceSort ingests the way the darknet
// generator's workers do — six producers RecordBatch-ing disjoint ordinal
// ranges at once, with keys shared across producers — and requires Flows and
// Drain to equal a sequential ingest of the same batches in ordinal order.
// Shared keys come back as separate records, each as its producer made it.
func TestOrderedDrainMatchesReferenceSort(t *testing.T) {
	prefix := netsim.MustParsePrefix("44.0.0.0/8")
	dark := netsim.MustParseIPv4("44.1.1.1")
	day := time.Date(2021, 4, 1, 0, 0, 0, 0, time.UTC)
	const producers, perProducer, batch = 6, 3000, 256
	// batches[p][k] is producer p's k-th batch; its ordinal is p*perProducer+off.
	batches := make([][][]FlowTuple, producers)
	for p := range batches {
		for off := 0; off < perProducer; off += batch {
			fts := make([]FlowTuple, min(batch, perProducer-off))
			for i := range fts {
				// Every tenth key is shared by all producers.
				src := netsim.IPv4(p<<20 | (off + i))
				if (off+i)%10 == 0 {
					src = netsim.IPv4(off + i)
				}
				fts[i] = FlowTuple{UnixNano: day.UnixNano(), SrcIP: src, DstIP: dark,
					SrcPort: 40000, DstPort: 23, Protocol: ProtoTCP, TTL: uint8(p), PacketCnt: 1}
			}
			batches[p] = append(batches[p], fts)
		}
	}
	var want []FlowTuple
	for p := range batches {
		for _, fts := range batches[p] {
			want = append(want, fts...)
		}
	}

	tel := New(prefix, nil)
	var wg sync.WaitGroup
	for p := range batches {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			// Each producer commits its batches last to first.
			for k := len(batches[p]) - 1; k >= 0; k-- {
				tel.RecordBatch(uint64(p*perProducer+k*batch), batches[p][k])
			}
		}(p)
	}
	wg.Wait()

	if st := tel.Stats(); tel.Len() != len(want) || st.Flows != len(want) || st.Packets != uint64(len(want)) {
		t.Fatalf("Len %d, Stats %+v, want %d flows of one packet", tel.Len(), st, len(want))
	}
	flows := tel.Flows()
	drained := tel.Drain()
	if len(flows) != len(want) || len(drained) != len(want) {
		t.Fatalf("Flows %d, Drain %d records, want %d", len(flows), len(drained), len(want))
	}
	for i := range want {
		if *flows[i] != want[i] || *drained[i] != want[i] {
			t.Fatalf("record %d: Flows %+v, Drain %+v, sequential ingest %+v", i, *flows[i], *drained[i], want[i])
		}
	}
	// Drain hands over the producers' own records.
	last := batches[producers-1][len(batches[producers-1])-1]
	if drained[0] != &batches[0][0][0] || drained[len(want)-1] != &last[len(last)-1] {
		t.Fatal("Drain copied the records instead of handing them over")
	}
	if tel.Len() != 0 {
		t.Fatalf("%d flows left after Drain", tel.Len())
	}
}

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
	first[0].CountryID = country("Japan")
	first[0].SrcIP = 0

	second := tel.Flows()
	if second[0].PacketCnt == 9999 || second[0].CountryID != sampleFlow().CountryID || second[0].SrcIP == 0 {
		t.Fatalf("mutating a Flows() result leaked into the capture: %+v", second[0])
	}
}

// TestDrainHandsOverAndClears pins the Drain contract: the live records are
// handed over (no copy) and the capture starts empty.
func TestDrainHandsOverAndClears(t *testing.T) {
	tel := New(netsim.MustParsePrefix("44.0.0.0/8"), nil)
	fts := []FlowTuple{*sampleFlow()}
	tel.RecordBatch(1, fts)
	drained := tel.Drain()
	if len(drained) != 1 || drained[0] != &fts[0] {
		t.Fatalf("drained %d records, want the one recorded", len(drained))
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
// order still read back in ordinal order, batch by batch and record by
// record within a batch.
func TestRecordBatchOrdinalOrder(t *testing.T) {
	tel := New(netsim.MustParsePrefix("44.0.0.0/8"), nil)

	mk := func(src uint32) FlowTuple {
		return FlowTuple{
			UnixNano: time.Date(2021, 4, 1, 0, 0, 0, 0, time.UTC).UnixNano(), SrcIP: netsim.IPv4(src),
			DstIP: netsim.MustParseIPv4("44.1.1.1"), SrcPort: 40000, DstPort: 23,
			Protocol: ProtoTCP, PacketCnt: 1,
		}
	}
	// Commit the higher ordinals first: scheduling must not matter.
	tel.RecordBatch(2000, []FlowTuple{mk(5), mk(6)})
	tel.RecordBatch(1000, []FlowTuple{mk(1), mk(2), mk(3)})
	tel.RecordBatch(1500, []FlowTuple{mk(4)})

	flows := tel.Flows()
	if len(flows) != 6 {
		t.Fatalf("flows %d, want 6", len(flows))
	}
	for i, ft := range flows {
		if want := netsim.IPv4(i + 1); ft.SrcIP != want {
			t.Fatalf("flow %d src %d, want %d", i, ft.SrcIP, want)
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
		if err := WriteFlowsCSV(&buf, tel.Flows()); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if a, b := dump(), dump(); !bytes.Equal(a, b) {
		t.Fatal("two snapshots of the same capture serialized differently")
	}
}
