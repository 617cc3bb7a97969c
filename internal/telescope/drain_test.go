package telescope

import (
	"sort"
	"sync"
	"testing"
	"time"

	"openhire/internal/netsim"
)

// referenceOrder is the drain order the telescope had before the radix
// gather: every shard's entries collected and handed to sort.Slice.
func referenceOrder(tel *Telescope) []seqFlow {
	var all []seqFlow
	for i := range tel.shards {
		s := &tel.shards[i]
		s.mu.Lock()
		for j := range s.entries {
			all = append(all, seqFlow{seq: s.entries[j].seq, ft: s.entries[j].ft})
		}
		s.mu.Unlock()
	}
	sort.Slice(all, func(i, j int) bool { return all[i].seq < all[j].seq })
	return all
}

// checkDrainOrder compares Flows and Drain — in that order, Drain empties
// the table — against the reference order of the same table.
func checkDrainOrder(t *testing.T, tel *Telescope, wantFlows int) {
	t.Helper()
	want := referenceOrder(tel)
	if len(want) != wantFlows {
		t.Fatalf("table holds %d flows, want %d", len(want), wantFlows)
	}
	flows := tel.Flows()
	drained := tel.Drain()
	if len(flows) != len(want) || len(drained) != len(want) {
		t.Fatalf("Flows %d, Drain %d records, reference %d", len(flows), len(drained), len(want))
	}
	for i := range want {
		if *flows[i] != *want[i].ft {
			t.Fatalf("Flows()[%d] = %+v, reference order has %+v", i, flows[i], want[i].ft)
		}
		if drained[i] != want[i].ft {
			t.Fatalf("Drain()[%d] is not the reference order's record (ordinal %d)", i, want[i].seq)
		}
	}
	if tel.Len() != 0 {
		t.Fatalf("%d flows left after Drain", tel.Len())
	}
}

// TestOrderedDrainMatchesReferenceSort ingests the way the darknet
// generator's workers do — producers RecordBatch-ing disjoint ordinal ranges
// shaped like the generator's at once, with keys that collide across
// producers — and requires Flows and Drain to come back in exactly the order
// sort.Slice gave, at sizes either side of the radix threshold.
func TestOrderedDrainMatchesReferenceSort(t *testing.T) {
	prefix := netsim.MustParsePrefix("44.0.0.0/8")
	dark := netsim.MustParseIPv4("44.1.1.1")
	day := time.Date(2021, 4, 1, 0, 0, 0, 0, time.UTC)
	for _, perProducer := range []int{20, 3000} { // 110 and 16,500 flows, either side of radixMin
		const producers, batch = 6, 256
		tel := New(prefix, nil)
		var wg sync.WaitGroup
		for p := 0; p < producers; p++ {
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				for off := 0; off < perProducer; off += batch {
					fts := make([]FlowTuple, min(batch, perProducer-off))
					for i := range fts {
						// Every tenth key is shared by all producers: the
						// smallest ordinal must win it whoever arrives first.
						src := netsim.IPv4(p<<20 | (off + i))
						if (off+i)%10 == 0 {
							src = netsim.IPv4(off + i)
						}
						fts[i] = FlowTuple{Time: day, SrcIP: src, DstIP: dark,
							SrcPort: 40000, DstPort: 23, Protocol: ProtoTCP, TTL: uint8(p), PacketCnt: 1}
					}
					tel.RecordBatch(uint64(p+1)<<40+uint64(off), fts)
				}
			}(p)
		}
		wg.Wait()

		shared := (perProducer + 9) / 10
		wantFlows := producers*(perProducer-shared) + shared
		if small := wantFlows < radixMin; small != (perProducer == 20) {
			t.Fatalf("%d flows land on the wrong side of radixMin %d", wantFlows, radixMin)
		}
		for _, sf := range referenceOrder(tel) {
			if sf.ft.SrcIP%10 == 0 && sf.ft.SrcIP < 1<<20 && (sf.seq>>40 != 1 || sf.ft.TTL != 0 || sf.ft.PacketCnt != producers) {
				t.Fatalf("shared key %d: ordinal %#x TTL %d packets %d, want producer 0's record holding all %d packets",
					sf.ft.SrcIP, sf.seq, sf.ft.TTL, sf.ft.PacketCnt, producers)
			}
		}
		checkDrainOrder(t, tel, wantFlows)
	}
}

// TestOrderedDrainSingleShard fills one shard only — every key hashes to
// shard 0 — with ordinals in no order, differing in all eight bytes and
// carrying duplicates: the radix sort's longest run, and the one input on
// which stability shows.
func TestOrderedDrainSingleShard(t *testing.T) {
	for _, flows := range []int{radixMin - 1, radixMin, 5000} {
		tel := New(netsim.MustParsePrefix("44.0.0.0/8"), nil)
		for src, n := uint32(0), 0; n < flows; src++ {
			ft := &FlowTuple{SrcIP: netsim.IPv4(src), DstIP: netsim.MustParseIPv4("44.1.1.1"),
				SrcPort: 1, DstPort: 23, Protocol: ProtoTCP, PacketCnt: 1}
			k0, k1 := flowKey{src: ft.SrcIP, dst: ft.DstIP, sport: ft.SrcPort, dport: ft.DstPort, proto: ft.Protocol}.pack()
			if mix64(k0^mix64(k1))>>(64-6) != 0 {
				continue
			}
			// mix64 scatters the ordinals over the whole 64-bit range;
			// halving n makes neighbours share one.
			recordAt(tel, mix64(uint64(flows-n/2)), ft)
			n++
		}
		for i := 1; i < numShards; i++ {
			if len(tel.shards[i].entries) != 0 {
				t.Fatalf("shard %d is not empty", i)
			}
		}
		// Entries sharing an ordinal keep gather order — the sort is stable —
		// which sort.Slice does not promise, so the reference here is the
		// stable sort of the same gather.
		var want []seqFlow
		for _, e := range tel.shards[0].entries {
			want = append(want, seqFlow{seq: e.seq, ft: e.ft})
		}
		sort.SliceStable(want, func(i, j int) bool { return want[i].seq < want[j].seq })
		got := tel.Drain()
		if len(got) != flows {
			t.Fatalf("drained %d flows, want %d", len(got), flows)
		}
		for i := range got {
			if got[i] != want[i].ft {
				t.Fatalf("%d flows: Drain()[%d] differs from the stable reference order (ordinal %#x)", flows, i, want[i].seq)
			}
		}
	}
}
