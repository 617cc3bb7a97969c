// Ablation benchmarks for the design choices DESIGN.md calls out: the
// ZMap-style address permutation vs a sequential sweep, the mask-map
// blocklist vs a linear scan, and scan worker scaling.
package openhire

import (
	"context"
	"fmt"
	"testing"

	"openhire/internal/core/scan"
	"openhire/internal/iot"
	"openhire/internal/netsim"
)

// BenchmarkAblationPermutation measures the full-cycle multiplicative-group
// iterator against a plain sequential sweep over the same domain. The
// permutation costs one modular multiplication per address — the price of
// not hammering one destination network at a time.
func BenchmarkAblationPermutation(b *testing.B) {
	const n = 1 << 20
	b.Run("group-permutation", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			pm := scan.NewPermutation(n, uint64(i+1))
			var sum uint64
			for {
				v, ok := pm.Next()
				if !ok {
					break
				}
				sum += v
			}
			if sum != n*(n-1)/2 {
				b.Fatalf("incomplete cycle: sum %d", sum)
			}
		}
	})
	b.Run("sequential", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var sum uint64
			for v := uint64(0); v < n; v++ {
				sum += v
			}
			if sum != n*(n-1)/2 {
				b.Fatal("bad sum")
			}
		}
	})
}

// BenchmarkAblationBlocklist measures the mask-map PrefixSet against a
// linear scan over the same prefixes, at the default blocklist size.
func BenchmarkAblationBlocklist(b *testing.B) {
	set := scan.DefaultBlocklist()
	prefixes := set.Prefixes()
	addrs := make([]netsim.IPv4, 4096)
	for i := range addrs {
		addrs[i] = netsim.IPv4(uint32(i) * 1048583)
	}
	b.Run("mask-map", func(b *testing.B) {
		b.ReportAllocs()
		hits := 0
		for i := 0; i < b.N; i++ {
			if set.Contains(addrs[i%len(addrs)]) {
				hits++
			}
		}
		_ = hits
	})
	b.Run("linear", func(b *testing.B) {
		b.ReportAllocs()
		hits := 0
		for i := 0; i < b.N; i++ {
			ip := addrs[i%len(addrs)]
			for _, p := range prefixes {
				if p.Contains(ip) {
					hits++
					break
				}
			}
		}
		_ = hits
	})
}

// BenchmarkAblationScanWorkers measures one protocol sweep of a /18 at
// different worker counts — the concurrency knob of the scan engine.
func BenchmarkAblationScanWorkers(b *testing.B) {
	prefix := netsim.MustParsePrefix("60.0.0.0/18")
	u := iot.NewUniverse(iot.UniverseConfig{Seed: 50, Prefix: prefix, DensityBoost: 50})
	n := netsim.NewNetwork(netsim.NewSimClock(netsim.ExperimentStart))
	n.AddProvider(prefix, u)
	module, _ := scan.ModuleFor(iot.ProtoMQTT)
	for _, workers := range []int{8, 32, 128} {
		b.Run(fmt.Sprintf("workers-%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s := scan.NewScanner(scan.Config{
					Network: n, Source: 1, Prefix: prefix,
					Seed: uint64(i + 1), Workers: workers,
				})
				_, stats, _ := s.Run(context.Background(), []scan.ProbeModule{module}, nil, 0, nil)
				if stats[iot.ProtoMQTT].Responded == 0 {
					b.Fatal("no responses")
				}
			}
		})
	}
}

// BenchmarkAblationFloodThreshold measures the honeypot flood-detector's
// bookkeeping cost per event (the price every UDP datagram pays for DoS
// classification).
func BenchmarkAblationHostDerivation(b *testing.B) {
	// Lazily derived hosts vs a hypothetical precomputed table: derivation
	// is the design choice letting a /14 universe cost zero memory. This
	// measures the per-lookup price, of a whole host (what a conversation
	// pays) and of one port (what a sweep pays).
	prefix := netsim.MustParsePrefix("60.0.0.0/14")
	u := iot.NewUniverse(iot.UniverseConfig{Seed: 51, Prefix: prefix, DensityBoost: 16})
	b.Run("host", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = u.Host(prefix.Nth(uint64(i) % prefix.Size()))
		}
	})
	b.Run("port", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = u.PortOpen(prefix.Nth(uint64(i)%prefix.Size()), netsim.TCP, 23)
		}
	})
}
