package telescope

import (
	"sync/atomic"
	"testing"

	"openhire/internal/geo"
	"openhire/internal/netsim"
)

// BenchmarkTelescopeObserve measures concurrent flow ingest through the
// netsim.Observer path — the contention-sensitive hot path when attack
// modules probe the dark prefix from many goroutines at once.
func BenchmarkTelescopeObserve(b *testing.B) {
	tel := New(netsim.MustParsePrefix("44.0.0.0/8"), geo.NewDB(1, nil))
	var ctr atomic.Uint64
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		ev := netsim.ProbeEvent{
			Time:      netsim.ExperimentStart,
			Src:       netsim.Endpoint{Port: 40000},
			Dst:       netsim.Endpoint{IP: netsim.MustParseIPv4("44.1.1.1"), Port: 23},
			Transport: netsim.TCP, Kind: netsim.ProbeSYN, TTL: 52,
		}
		for pb.Next() {
			// ~100k distinct sources so map growth and hits both occur.
			ev.Src.IP = netsim.IPv4(ctr.Add(1) % 100000)
			tel.Observe(ev)
		}
	})
}

// BenchmarkTelescopeRecord measures the direct statistical-ingest path the
// darknet generator uses.
func BenchmarkTelescopeRecord(b *testing.B) {
	benchTelescopeRecord(b, false)
}

// BenchmarkTelescopeRecordReserved is the same ingest with the shard indexes
// pre-sized from the flow-count hint, isolating the rehash cost that Reserve
// removes from the generator's hot loop.
func BenchmarkTelescopeRecordReserved(b *testing.B) {
	benchTelescopeRecord(b, true)
}

func benchTelescopeRecord(b *testing.B, reserve bool) {
	tel := New(netsim.MustParsePrefix("44.0.0.0/8"), nil)
	if reserve {
		tel.Reserve(b.N)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ft := sampleFlow()
		ft.SrcIP = netsim.IPv4(i % 100000)
		ft.SrcPort = uint16(i % 28232)
		tel.Record(ft)
	}
}
