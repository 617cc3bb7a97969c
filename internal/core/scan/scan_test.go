package scan

import (
	"context"
	"errors"
	"strings"
	"testing"
	"testing/quick"

	"openhire/internal/iot"
	"openhire/internal/netsim"
)

func TestPermutationCoversDomain(t *testing.T) {
	for _, n := range []uint64{1, 2, 7, 100, 1024, 65537} {
		pm := NewPermutation(n, 42)
		seen := make(map[uint64]bool, n)
		for {
			v, ok := pm.Next()
			if !ok {
				break
			}
			if v >= n {
				t.Fatalf("n=%d: value %d out of range", n, v)
			}
			if seen[v] {
				t.Fatalf("n=%d: duplicate %d", n, v)
			}
			seen[v] = true
		}
		if uint64(len(seen)) != n {
			t.Fatalf("n=%d: covered %d", n, len(seen))
		}
	}
}

func TestPermutationSeedsDiffer(t *testing.T) {
	a := NewPermutation(1000, 1)
	b := NewPermutation(1000, 2)
	same := 0
	for i := 0; i < 100; i++ {
		va, _ := a.Next()
		vb, _ := b.Next()
		if va == vb {
			same++
		}
	}
	if same > 20 {
		t.Fatalf("%d/100 positions identical across seeds", same)
	}
}

func TestPermutationReset(t *testing.T) {
	pm := NewPermutation(50, 9)
	var first []uint64
	for {
		v, ok := pm.Next()
		if !ok {
			break
		}
		first = append(first, v)
	}
	pm.Reset()
	for i := 0; ; i++ {
		v, ok := pm.Next()
		if !ok {
			break
		}
		if v != first[i] {
			t.Fatalf("position %d differs after reset", i)
		}
	}
}

func TestPermutationNotSequential(t *testing.T) {
	pm := NewPermutation(10000, 7)
	sequentialRuns := 0
	prev, _ := pm.Next()
	for i := 0; i < 1000; i++ {
		v, _ := pm.Next()
		if v == prev+1 {
			sequentialRuns++
		}
		prev = v
	}
	if sequentialRuns > 10 {
		t.Fatalf("%d sequential steps: permutation too ordered", sequentialRuns)
	}
}

func TestIsPrimeProperty(t *testing.T) {
	if err := quick.Check(func(v uint32) bool {
		n := uint64(v%100000) + 2
		got := isPrime(n)
		want := true
		for d := uint64(2); d*d <= n; d++ {
			if n%d == 0 {
				want = false
				break
			}
		}
		return got == want
	}, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestNextPrime(t *testing.T) {
	cases := map[uint64]uint64{1: 2, 2: 2, 3: 3, 4: 5, 14: 17, 100: 101}
	for in, want := range cases {
		if got := nextPrime(in); got != want {
			t.Errorf("nextPrime(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestBlocklistExcluded(t *testing.T) {
	prefix := netsim.MustParsePrefix("192.168.0.0/24")
	it := NewAddressIterator(prefix, 1, DefaultBlocklist())
	if _, ok := it.Next(); ok {
		t.Fatal("blocklisted prefix yielded addresses")
	}
}

// buildTestWorld assembles a small universe with boosted density.
func buildTestWorld(t testing.TB, boost float64) (*netsim.Network, *iot.Universe, netsim.Prefix) {
	t.Helper()
	prefix := netsim.MustParsePrefix("50.0.0.0/16")
	u := iot.NewUniverse(iot.UniverseConfig{Seed: 77, Prefix: prefix, DensityBoost: boost})
	n := netsim.NewNetwork(netsim.NewSimClock(netsim.ExperimentStart))
	n.AddProvider(prefix, u)
	return n, u, prefix
}

// runModule sweeps one module with the plain driver (no commit hook) and
// returns its sorted results and stats.
func runModule(ctx context.Context, s *Scanner, m ProbeModule) ([]*Result, Stats) {
	results, stats, _ := s.Run(ctx, []ProbeModule{m}, nil, 0, nil)
	return results[m.Protocol()], stats[m.Protocol()]
}

func TestScanFindsTelnetPopulation(t *testing.T) {
	n, u, prefix := buildTestWorld(t, 200)
	s := NewScanner(Config{
		Network: n,
		Source:  netsim.MustParseIPv4("130.226.0.1"),
		Prefix:  prefix,
		Seed:    5,
		Workers: 32,
	})
	results, stats := runModule(context.Background(), s, TelnetModule{})
	if stats.Probed == 0 || stats.Responded == 0 {
		t.Fatalf("stats %+v", stats)
	}
	// Expected exposure: density×boost×size. Allow generous slack, plus
	// wild honeypots which also answer Telnet.
	want := u.ExpectedExposed(iot.ProtoTelnet)
	got := float64(len(results))
	if got < want*0.8 || got > want*1.3 {
		t.Fatalf("found %v telnet hosts, expected ~%.0f", got, want)
	}
	// Every result must carry a banner.
	for _, r := range results[:10] {
		if len(r.Banner) == 0 {
			t.Fatalf("empty banner for %v", r.IP)
		}
	}
}

func TestScanUDPCoAP(t *testing.T) {
	n, u, prefix := buildTestWorld(t, 400)
	s := NewScanner(Config{
		Network: n, Source: 1, Prefix: prefix, Seed: 6, Workers: 32,
	})
	count := 0
	disclosing := 0
	results, _ := runModule(context.Background(), s, CoAPModule{})
	for _, r := range results {
		count++
		if r.Meta["coap.disclosed"] == "true" {
			disclosing++
		}
	}
	want := u.ExpectedExposed(iot.ProtoCoAP)
	if float64(count) < want*0.7 {
		t.Fatalf("CoAP responses %d, expected ~%.0f", count, want)
	}
	// ~88% of exposed CoAP devices disclose resources, ~1.5% answer with
	// banners, ~11% answer 4.01 (responding but not disclosing).
	share := float64(disclosing) / float64(count)
	if share < 0.75 || share > 0.98 {
		t.Fatalf("disclosure share %.2f", share)
	}
}

func TestScanRespectsContext(t *testing.T) {
	n, _, prefix := buildTestWorld(t, 1)
	s := NewScanner(Config{Network: n, Source: 1, Prefix: prefix, Seed: 7, Workers: 4})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, stats, err := s.Run(ctx, []ProbeModule{TelnetModule{}}, nil, 0, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled scan returned err = %v", err)
	}
	if st := stats[iot.ProtoTelnet]; st.Probed > uint64(prefix.Size()) {
		t.Fatalf("probed %d", st.Probed)
	}
}

func TestRunSweepsEveryProtocol(t *testing.T) {
	n, _, _ := buildTestWorld(t, 300)
	// Use a /20 slice for speed.
	small := netsim.MustParsePrefix("50.0.0.0/20")
	s := NewScanner(Config{Network: n, Source: 1, Prefix: small, Seed: 8, Workers: 32})
	results, stats, err := s.Run(context.Background(), AllModules(), nil, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != 6 {
		t.Fatalf("stats for %d protocols", len(stats))
	}
	for proto, st := range stats {
		if st.Probed == 0 {
			t.Errorf("%s probed 0", proto)
		}
	}
	// Telnet and MQTT dominate exposure (Table 4 ordering).
	if len(results[iot.ProtoTelnet]) <= len(results[iot.ProtoAMQP]) {
		t.Fatalf("telnet %d <= amqp %d: Table 4 ordering violated",
			len(results[iot.ProtoTelnet]), len(results[iot.ProtoAMQP]))
	}
}

func TestMQTTProbeRecordsCode(t *testing.T) {
	n, u, prefix := buildTestWorld(t, 300)
	s := NewScanner(Config{Network: n, Source: 1, Prefix: prefix, Seed: 9, Workers: 32})
	codes := make(map[string]int)
	results, _ := runModule(context.Background(), s, MQTTModule{})
	for _, r := range results {
		codes[r.Meta["mqtt.code"]]++
	}
	_ = u
	if codes["0"] == 0 {
		t.Fatal("no open brokers observed")
	}
	if codes["5"] == 0 {
		t.Fatal("no auth-required brokers observed")
	}
	if codes["0"] > codes["5"] {
		t.Fatalf("open (%d) should be rarer than authed (%d)", codes["0"], codes["5"])
	}
	for code := range codes {
		if code != "0" && code != "4" && code != "5" {
			t.Fatalf("unexpected code %q", code)
		}
	}
}

func TestUPnPProbeMeta(t *testing.T) {
	n, _, _ := buildTestWorld(t, 300)
	small := netsim.MustParsePrefix("50.0.0.0/18")
	s := NewScanner(Config{Network: n, Source: 1, Prefix: small, Seed: 10, Workers: 32})
	var sawServer bool
	results, _ := runModule(context.Background(), s, UPnPModule{})
	for _, r := range results {
		if strings.Contains(r.Meta["upnp.server"], "UPnP") {
			sawServer = true
		}
	}
	if !sawServer {
		t.Fatal("no SERVER headers captured")
	}
}

func TestModuleFor(t *testing.T) {
	for _, p := range iot.ScannedProtocols {
		m, ok := ModuleFor(p)
		if !ok || m.Protocol() != p {
			t.Fatalf("ModuleFor(%s) = %v, %v", p, m, ok)
		}
	}
	if _, ok := ModuleFor(iot.ProtoSSH); ok {
		t.Fatal("SSH module should not exist")
	}
}

func BenchmarkPermutationNext(b *testing.B) {
	pm := NewPermutation(1<<24, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, ok := pm.Next(); !ok {
			pm.Reset()
		}
	}
}

func BenchmarkTelnetProbe(b *testing.B) {
	n, _, _ := buildTestWorld(b, 200)
	s := NewScanner(Config{Network: n, Source: 1, Prefix: netsim.MustParsePrefix("50.0.0.0/16"), Workers: 1})
	_ = s
	m := TelnetModule{}
	// Find one live telnet host first.
	var target netsim.Endpoint
	it := NewAddressIterator(netsim.MustParsePrefix("50.0.0.0/16"), 1, nil)
	for {
		ip, ok := it.Next()
		if !ok {
			b.Fatal("no live host")
		}
		if _, out := m.Probe(context.Background(), n, 1, netsim.Endpoint{IP: ip, Port: 23}, ProbeSpec{}); out == OutcomeOK {
			target = netsim.Endpoint{IP: ip, Port: 23}
			break
		}
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, out := m.Probe(context.Background(), n, 1, target, ProbeSpec{}); out != OutcomeOK {
			b.Fatal("probe failed")
		}
	}
}
