package telescope

import (
	"bufio"
	"bytes"
	"io"
	"testing"
	"time"

	"openhire/internal/geo"
	"openhire/internal/netsim"
)

// benchDay builds a synthetic capture day shaped like the darknet generator's:
// units slabs of perUnit distinct flows, one per (protocol, day) unit, with
// the geo database's country labels.
func benchDay(units, perUnit int) [][]FlowTuple {
	day := make([][]FlowTuple, units)
	for u := range day {
		day[u] = make([]FlowTuple, perUnit)
		for i := range day[u] {
			ft := sampleFlow()
			ft.SrcIP = netsim.IPv4(u<<24 | i)
			ft.UnixNano = netsim.ExperimentStart.Add(time.Duration(i%86400) * time.Second).UnixNano()
			ft.CountryID = geo.CountryID(1 + i%len(geo.PaperCountryWeights))
			day[u][i] = *ft
		}
	}
	return day
}

// BenchmarkDrain measures Telescope.Drain over a 120K-flow day ingested the
// way the parallel generator ingests it — one RecordBatch per unit, the units
// landing out of ordinal order. Refilling the capture is untimed.
// Spine row it breaks down: telescope_capture telescope.drain_ns_per_flow.
func BenchmarkDrain(b *testing.B) {
	const units, perUnit = 6, 20000
	tel := New(netsim.MustParsePrefix("44.0.0.0/8"), nil)
	flows := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		day := benchDay(units, perUnit) // RecordBatch takes ownership of the slabs
		for u := len(day) - 1; u >= 0; u-- {
			tel.RecordBatch(uint64(u), day[u])
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
