package scan

import (
	"context"
	"testing"
	"time"

	"openhire/internal/iot"
	"openhire/internal/netsim"
)

// BenchmarkProbeThroughput measures the end-to-end scan hot path: a full
// Telnet sweep of a /16 universe (2 ports per address, ~131k probes per
// iteration). The per-probe cost is the number that bounds Internet-wide
// sweep time, reported as ns/probe, and broken down by phase: ns/negative is
// the same sweep over a universe too sparse to hold a device, where every
// target ends at the stateless verdict, and ns/responder is what the
// populated sweep took beyond its negatives at that price, per grabbed
// responder. All three are wall time over the whole worker pool, like the
// spine row.
// Spine row it breaks down: report_default scan.probe_ns.
func BenchmarkProbeThroughput(b *testing.B) {
	n, _, prefix := buildTestWorld(b, 50)
	dark := netsim.NewNetwork(netsim.NewSimClock(netsim.ExperimentStart))
	dark.AddProvider(prefix, iot.NewUniverse(iot.UniverseConfig{Seed: 77, Prefix: prefix, DensityBoost: 1e-9}))
	cfg := Config{
		Network: n,
		Source:  netsim.MustParseIPv4("130.226.0.1"),
		Prefix:  prefix,
		Seed:    5,
		Workers: 64,
	}
	s := NewScanner(cfg)
	cfg.Network = dark
	sDark := NewScanner(cfg)
	var (
		st, stDark           Stats
		elapsed, elapsedDark time.Duration
	)
	sweep := func(s *Scanner, st *Stats, elapsed *time.Duration) {
		start := time.Now()
		_, one := runModule(context.Background(), s, TelnetModule{})
		*elapsed += time.Since(start)
		st.add(one)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sweep(s, &st, &elapsed)
		sweep(sDark, &stDark, &elapsedDark)
	}
	b.StopTimer()
	if st.Responded == 0 || stDark.Probed == 0 || stDark.Responded != 0 {
		b.Fatalf("populated sweep %+v, dark sweep %+v", st, stDark)
	}
	perNegative := float64(elapsedDark.Nanoseconds()) / float64(stDark.Probed)
	grabs := float64(elapsed.Nanoseconds()) - perNegative*float64(st.Probed-st.Responded)
	b.ReportMetric(float64(elapsed.Nanoseconds())/float64(st.Probed), "ns/probe")
	b.ReportMetric(perNegative, "ns/negative")
	b.ReportMetric(grabs/float64(st.Responded), "ns/responder")
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
