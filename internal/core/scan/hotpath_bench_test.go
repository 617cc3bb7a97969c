package scan

import (
	"context"
	"testing"

	"openhire/internal/netsim"
)

// BenchmarkProbeThroughput measures the end-to-end scan hot path: a full
// Telnet sweep of a /16 universe (2 ports per address, ~131k probes per
// iteration). The per-probe cost is the number that bounds Internet-wide
// sweep time, reported as ns/probe.
// Spine row it breaks down: report_default scan.probe_ns.
func BenchmarkProbeThroughput(b *testing.B) {
	n, _, prefix := buildTestWorld(b, 50)
	s := NewScanner(Config{
		Network: n,
		Source:  netsim.MustParseIPv4("130.226.0.1"),
		Prefix:  prefix,
		Seed:    5,
		Workers: 64,
	})
	b.ReportAllocs()
	b.ResetTimer()
	var probed uint64
	for i := 0; i < b.N; i++ {
		_, st := runModule(context.Background(), s, TelnetModule{})
		probed += st.Probed
	}
	b.StopTimer()
	if probed == 0 {
		b.Fatal("no probes issued")
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(probed), "ns/probe")
}

// BenchmarkProbeThroughputUDP is the same sweep over a connectionless
// module (CoAP), isolating the Query path from the Dial goroutine cost.
func BenchmarkProbeThroughputUDP(b *testing.B) {
	n, _, prefix := buildTestWorld(b, 50)
	s := NewScanner(Config{
		Network: n,
		Source:  netsim.MustParseIPv4("130.226.0.1"),
		Prefix:  prefix,
		Seed:    5,
		Workers: 64,
	})
	b.ReportAllocs()
	b.ResetTimer()
	var probed uint64
	for i := 0; i < b.N; i++ {
		_, st := runModule(context.Background(), s, CoAPModule{})
		probed += st.Probed
	}
	b.StopTimer()
	if probed == 0 {
		b.Fatal("no probes issued")
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(probed), "ns/probe")
}
