package scan

import (
	"context"
	"testing"

	"openhire/internal/netsim"
)

func TestDistributedEqualsSingleScanner(t *testing.T) {
	n, _, _ := buildTestWorld(t, 200)
	prefix := netsim.MustParsePrefix("50.0.0.0/18")

	// Single-scanner baseline.
	single := NewScanner(Config{Network: n, Source: 1, Prefix: prefix, Seed: 40, Workers: 64})
	baseline := make(map[netsim.IPv4]bool)
	results, _ := runModule(context.Background(), single, MQTTModule{})
	for _, r := range results {
		baseline[r.IP] = true
	}

	// Three-vantage distributed scan of the same prefix and seed.
	dist := RunDistributed(context.Background(), DistributedConfig{
		Network: n, Prefix: prefix, Seed: 40,
		Vantages: []Vantage{
			{Source: netsim.MustParseIPv4("130.226.0.1")},
			{Source: netsim.MustParseIPv4("198.51.100.1")},
			{Source: netsim.MustParseIPv4("192.0.2.1")},
		},
	}, MQTTModule{})

	// Exact equality modulo a sliver of probe-deadline noise under heavy
	// parallel load; nothing may appear that the baseline did not see.
	if diff := len(baseline) - len(dist.Results); diff < 0 || float64(diff) > 0.02*float64(len(baseline)) {
		t.Fatalf("distributed found %d hosts, single %d", len(dist.Results), len(baseline))
	}
	for _, r := range dist.Results {
		if !baseline[r.IP] {
			t.Fatalf("distributed found %v missing from baseline", r.IP)
		}
	}
	// Work is actually split: every vantage contributed.
	for i, nFound := range dist.PerVantage {
		if nFound == 0 {
			t.Fatalf("vantage %d found nothing: %v", i, dist.PerVantage)
		}
	}
}

func TestDistributedVantageBlocklists(t *testing.T) {
	n, _, _ := buildTestWorld(t, 200)
	prefix := netsim.MustParsePrefix("50.0.0.0/19")
	// One vantage is barred from half the range; the scan must then miss
	// the hosts that only its shard would have covered there.
	blocked := netsim.NewPrefixSet(netsim.MustParsePrefix("50.0.0.0/20"))
	dist := RunDistributed(context.Background(), DistributedConfig{
		Network: n, Prefix: prefix, Seed: 41,
		Vantages: []Vantage{
			{Source: 1, Blocklist: blocked},
			{Source: 2},
		},
	}, TelnetModule{})
	full := RunDistributed(context.Background(), DistributedConfig{
		Network: n, Prefix: prefix, Seed: 41,
		Vantages: []Vantage{
			{Source: 1},
			{Source: 2},
		},
	}, TelnetModule{})
	if len(dist.Results) >= len(full.Results) {
		t.Fatalf("blocklisted run found %d >= unrestricted %d",
			len(dist.Results), len(full.Results))
	}
	onlyFull, onlyBlocked := CoverageDelta(full.Results, dist.Results)
	if len(onlyBlocked) != 0 {
		t.Fatalf("blocklisted run found %d extra hosts", len(onlyBlocked))
	}
	inBlockedRange := 0
	for _, ip := range onlyFull {
		if blocked.Contains(ip) {
			inBlockedRange++
		}
	}
	if inBlockedRange == 0 {
		t.Fatal("coverage loss not in the blocklisted range")
	}
}

func BenchmarkDistributedScan4Vantages(b *testing.B) {
	n, _, _ := buildTestWorld(b, 100)
	prefix := netsim.MustParsePrefix("50.0.0.0/20")
	vantages := []Vantage{{Source: 1}, {Source: 2}, {Source: 3}, {Source: 4}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		RunDistributed(context.Background(), DistributedConfig{
			Network: n, Prefix: prefix, Seed: uint64(i),
			Vantages: vantages,
		}, MQTTModule{})
	}
}
