package telescope

import (
	"bufio"
	"bytes"
	"io"
	"sync/atomic"
	"testing"
	"time"

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

// benchDay builds a synthetic capture day shaped like the darknet generator's:
// units slabs of perUnit distinct flows, slab u owning the ordinal range
// (u+1)<<40 + i the way a (protocol, day) generation unit does, with the
// geo database's country labels.
func benchDay(units, perUnit int) [][]FlowTuple {
	day := make([][]FlowTuple, units)
	for u := range day {
		day[u] = make([]FlowTuple, perUnit)
		for i := range day[u] {
			ft := sampleFlow()
			ft.SrcIP = netsim.IPv4(u<<24 | i)
			ft.Time = netsim.ExperimentStart.Add(time.Duration(i%86400) * time.Second)
			ft.CountryCC = string(geo.PaperCountryWeights[i%len(geo.PaperCountryWeights)].Country)
			day[u][i] = *ft
		}
	}
	return day
}

// BenchmarkDrain measures Telescope.Drain over a 120K-flow day ingested the
// way the parallel generator ingests it — 256-record RecordBatch calls, the
// units interleaved — so the gather meets every shard holding every unit's
// ordinals out of order. Refilling the table is untimed.
// Spine row it breaks down: telescope_capture telescope.drain_ns_per_flow.
func BenchmarkDrain(b *testing.B) {
	const units, perUnit, batch = 6, 20000, 256
	tel := New(netsim.MustParsePrefix("44.0.0.0/8"), nil)
	flows := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		day := benchDay(units, perUnit) // RecordBatch takes ownership of the slabs
		tel.Reserve(units * perUnit)
		for off := 0; off < perUnit; off += batch {
			for u := range day {
				tel.RecordBatch(uint64(u+1)<<40+uint64(off), day[u][off:min(off+batch, perUnit)])
			}
		}
		b.StartTimer()
		flows += len(tel.Drain())
	}
	b.StopTimer()
	if flows != b.N*units*perUnit {
		b.Fatalf("drained %d flows, want %d", flows, b.N*units*perUnit)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(flows), "ns/flow")
}

// BenchmarkFlowCodec measures the record codec the way the capture file
// sees it: binary encode through a 1 MB bufio.Writer, binary decode out of a
// 1 MB bufio.Reader, and the CSV line the daemon's hour files are made of.
// Spine rows it breaks down: telescope_capture telescope.encode_ns_per_flow
// (binary-encode) and telescope.parse_ns_per_flow (binary-decode); the rows
// also hold the file system's share, which this leaves out.
func BenchmarkFlowCodec(b *testing.B) {
	const n = 100000
	slab := benchDay(1, n)[0]
	flows := make([]*FlowTuple, n)
	for i := range slab {
		flows[i] = &slab[i]
	}
	var file bytes.Buffer
	if err := WriteFlowsBinary(&file, flows); err != nil {
		b.Fatal(err)
	}
	perFlow := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/flow")
	}
	b.Run("binary-encode", func(b *testing.B) {
		bw := bufio.NewWriterSize(io.Discard, 1<<20)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, ft := range flows {
				if err := ft.WriteBinary(bw); err != nil {
					b.Fatal(err)
				}
			}
		}
		perFlow(b)
	})
	b.Run("binary-decode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			br := bufio.NewReaderSize(bytes.NewReader(file.Bytes()), 1<<20)
			for {
				if _, err := ReadBinary(br); err == io.EOF {
					break
				} else if err != nil {
					b.Fatal(err)
				}
			}
		}
		perFlow(b)
	})
	b.Run("csv-encode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := WriteFlowsCSV(io.Discard, flows); err != nil {
				b.Fatal(err)
			}
		}
		perFlow(b)
	})
}
