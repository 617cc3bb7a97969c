package scan

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"openhire/internal/iot"
	"openhire/internal/netsim"
	"openhire/internal/netsim/faults"
)

// chaosWorld builds a fresh universe + network for one chaos run. Every run
// gets its own world so no state (stats counters, broker sessions) leaks
// between the runs being compared.
func chaosWorld(t testing.TB, cidr string, boost float64, profile faults.Profile) (*netsim.Network, netsim.Prefix) {
	t.Helper()
	prefix := netsim.MustParsePrefix(cidr)
	u := iot.NewUniverse(iot.UniverseConfig{Seed: 77, Prefix: prefix, DensityBoost: boost})
	n := netsim.NewNetwork(netsim.NewSimClock(netsim.ExperimentStart))
	n.AddProvider(prefix, u)
	if m := faults.New(profile); m != nil {
		n.SetFaults(m)
	}
	return n, prefix
}

// chaosScan runs all six modules and returns a canonical text digest of the
// full result set plus the per-protocol stats. Byte-identical digests mean
// byte-identical scan output.
func chaosScan(t testing.TB, cidr string, boost float64, profile faults.Profile,
	workers int, mut func(*Config)) (string, map[iot.Protocol]Stats) {
	t.Helper()
	n, prefix := chaosWorld(t, cidr, boost, profile)
	cfg := Config{
		Network: n,
		Source:  netsim.MustParseIPv4("130.226.0.1"),
		Prefix:  prefix,
		Seed:    5,
		Workers: workers,
	}
	if mut != nil {
		mut(&cfg)
	}
	results, stats, err := NewScanner(cfg).Run(context.Background(), AllModules(), nil, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	return digestResults(results), stats
}

// digestResults serializes a result map deterministically: protocols sorted,
// per-protocol slices already sorted by (IP, Port), every field included.
func digestResults(results map[iot.Protocol][]*Result) string {
	protos := make([]iot.Protocol, 0, len(results))
	for p := range results {
		protos = append(protos, p)
	}
	sort.Slice(protos, func(i, j int) bool { return protos[i] < protos[j] })
	var b strings.Builder
	for _, p := range protos {
		for _, r := range results[p] {
			fmt.Fprintf(&b, "%s|%v|%d|%q|%q|", p, r.IP, r.Port, r.Banner, r.Response)
			keys := make([]string, 0, len(r.Meta))
			for k := range r.Meta {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				fmt.Fprintf(&b, "%s=%q;", k, r.Meta[k])
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// statsEqual compares the deterministic stats fields (Elapsed is wall-clock
// and excluded).
func statsEqual(a, b map[iot.Protocol]Stats) string {
	for p, sa := range a {
		sb := b[p]
		sa.Elapsed, sb.Elapsed = 0, 0
		if sa != sb {
			return fmt.Sprintf("%s: %+v vs %+v", p, sa, sb)
		}
	}
	return ""
}

// TestChaosZeroFaultIsNoop asserts the zero profile produces no model at all
// and that a scan over it is byte-identical to a scan on a network that
// never heard of the fault layer, with none of the failure counters moving
// and exactly one transmission per target.
func TestChaosZeroFaultIsNoop(t *testing.T) {
	if m := faults.New(faults.Zero()); m != nil {
		t.Fatal("New(Zero()) built a model; zero profiles must install nothing")
	}
	plain, plainStats := chaosScan(t, "50.0.0.0/18", 200, faults.Zero(), 16, nil)
	zero, zeroStats := chaosScan(t, "50.0.0.0/18", 200, faults.Profile{}, 16, nil)
	if plain != zero {
		t.Fatal("zero-fault profile changed scan output")
	}
	if diff := statsEqual(plainStats, zeroStats); diff != "" {
		t.Fatalf("zero-fault stats differ: %s", diff)
	}
	for p, st := range zeroStats {
		if st.Timeouts != 0 || st.Resets != 0 || st.Partials != 0 ||
			st.Retransmits != 0 || st.BreakerSkipped != 0 {
			t.Fatalf("%s: failure counters moved on a perfect network: %+v", p, st)
		}
	}
}

// TestChaosDeterministicAcrossWorkers asserts a faulted scan's output is a
// pure function of (seed, profile): byte-identical results and identical
// stats for 1, 7 and 32 workers.
func TestChaosDeterministicAcrossWorkers(t *testing.T) {
	profile := faults.Calibrated()
	base, baseStats := chaosScan(t, "50.0.0.0/19", 200, profile, 1, nil)
	for _, workers := range []int{7, 32} {
		got, gotStats := chaosScan(t, "50.0.0.0/19", 200, profile, workers, nil)
		if got != base {
			t.Fatalf("results with %d workers differ from single-worker run", workers)
		}
		if diff := statsEqual(baseStats, gotStats); diff != "" {
			t.Fatalf("stats with %d workers differ: %s", workers, diff)
		}
	}
}

// TestChaosRunToRunIdentity asserts two runs with identical (seed, profile)
// are byte-identical, including every degradation counter.
func TestChaosRunToRunIdentity(t *testing.T) {
	profile := faults.Harsh()
	a, aStats := chaosScan(t, "50.0.0.0/19", 200, profile, 16, nil)
	b, bStats := chaosScan(t, "50.0.0.0/19", 200, profile, 16, nil)
	if a != b {
		t.Fatal("two identical harsh-profile runs produced different output")
	}
	if diff := statsEqual(aStats, bStats); diff != "" {
		t.Fatalf("stats differ across identical runs: %s", diff)
	}
}

// TestChaosRetransmitRecoversLoss asserts bounded retransmission restores
// coverage on a lossy-but-otherwise-clean network: with 20% SYN/datagram
// loss and 3 attempts per target, the miss probability per target is 0.8%,
// so the scan should find nearly every host the zero-fault scan finds.
func TestChaosRetransmitRecoversLoss(t *testing.T) {
	lossy := faults.Profile{Seed: 42, SYNLoss: 0.20, DatagramLoss: 0.20}
	_, baseline := chaosScan(t, "50.0.0.0/19", 200, faults.Zero(), 16, nil)
	_, oneShot := chaosScan(t, "50.0.0.0/19", 200, lossy, 16, func(c *Config) { c.MaxAttempts = 1 })
	_, retried := chaosScan(t, "50.0.0.0/19", 200, lossy, 16, nil) // default 3 attempts

	for p, base := range baseline {
		if base.Responded == 0 {
			continue
		}
		one, three := oneShot[p], retried[p]
		if one.Retransmits != 0 {
			t.Fatalf("%s: MaxAttempts=1 still retransmitted", p)
		}
		if three.Retransmits == 0 || three.Timeouts == 0 {
			t.Fatalf("%s: lossy run recorded no timeouts/retransmits: %+v", p, three)
		}
		// One shot at 20% loss loses real coverage; (UDP needs both the query
		// and, for TCP, the SYN to survive, so the drop is roughly 20%).
		if float64(one.Responded) > 0.95*float64(base.Responded) {
			t.Fatalf("%s: one-shot scan unexpectedly kept coverage (%d of %d)",
				p, one.Responded, base.Responded)
		}
		// Three attempts recover it to within a few percent.
		if float64(three.Responded) < 0.95*float64(base.Responded) {
			t.Fatalf("%s: retransmits recovered only %d of %d responders",
				p, three.Responded, base.Responded)
		}
	}
}

// TestChaosBreakerSkipsBlackholed pins the circuit breaker's exact,
// deterministic arithmetic: with every /24 blackholed, the feed passes the
// first BreakerThreshold addresses of each /24 (the scanner must burn
// timeouts to learn the prefix is dead) and skips the rest.
func TestChaosBreakerSkipsBlackholed(t *testing.T) {
	profile := faults.Profile{Seed: 1, BlackholeFrac: 1.0}
	n, prefix := chaosWorld(t, "50.0.0.0/24", 50, profile)
	s := NewScanner(Config{
		Network: n, Source: netsim.MustParseIPv4("130.226.0.1"),
		Prefix: prefix, Seed: 5, Workers: 8,
		Blocklist: netsim.NewPrefixSet(), // empty: all 256 addresses in play
	})
	_, st := runModule(context.Background(), s, TelnetModule{})

	const threshold = 8                     // NewScanner default
	wantProbed := uint64(threshold * 2 * 3) // 8 addrs x 2 ports x 3 attempts
	wantSkipped := uint64((256 - threshold) * 2)
	if st.Probed != wantProbed {
		t.Fatalf("probed %d transmissions, want %d", st.Probed, wantProbed)
	}
	if st.BreakerSkipped != wantSkipped {
		t.Fatalf("breaker skipped %d targets, want %d", st.BreakerSkipped, wantSkipped)
	}
	if st.Responded != 0 {
		t.Fatalf("%d responses out of a fully blackholed prefix", st.Responded)
	}
	if st.Timeouts != wantProbed {
		t.Fatalf("timeouts %d, want %d (every transmission lost)", st.Timeouts, wantProbed)
	}
}

// TestChaosStreamPathologies asserts tarpits and resets surface as the
// partial/reset outcome classes rather than vanishing into true negatives.
func TestChaosStreamPathologies(t *testing.T) {
	_, tarpitStats := chaosScan(t, "50.0.0.0/20", 200,
		faults.Profile{Seed: 9, TarpitProb: 1.0, TarpitBytes: 8}, 16, nil)
	st := tarpitStats[iot.ProtoTelnet]
	if st.Partials == 0 {
		t.Fatalf("universal tarpit produced no partial banners: %+v", st)
	}
	if st.Responded != 0 {
		t.Fatalf("8-byte tarpit still yielded %d classified telnet banners", st.Responded)
	}

	_, resetStats := chaosScan(t, "50.0.0.0/20", 200,
		faults.Profile{Seed: 9, ResetProb: 1.0, ResetBytes: 4}, 16, nil)
	st = resetStats[iot.ProtoTelnet]
	if st.Resets == 0 {
		t.Fatalf("universal resets produced no reset outcomes: %+v", st)
	}
	if st.Responded != 0 {
		t.Fatalf("4-byte reset budget still yielded %d telnet banners", st.Responded)
	}
}

// TestBackoffSchedule pins the retransmit schedule: exponential growth from
// retransmitBase, jitter in [0, delay/2] drawn from the derived stream, and
// a hard cap for large attempt ordinals (including the shift-overflow case).
func TestBackoffSchedule(t *testing.T) {
	s := NewScanner(Config{Network: netsim.NewNetwork(netsim.NewSimClock(netsim.ExperimentStart)), Prefix: netsim.MustParsePrefix("10.0.0.0/24")})
	base, cap := retransmitBase, retransmitCap
	cases := []struct {
		attempt  uint32
		min, max time.Duration
	}{
		{0, base, base + base/2},
		{1, 2 * base, 3 * base},
		{2, 4 * base, 6 * base},
		{4, cap, cap + cap/2},  // base<<4 == cap exactly
		{5, cap, cap + cap/2},  // beyond the cap
		{63, cap, cap + cap/2}, // shift wraps to <= 0; must clamp, not explode
	}
	for _, c := range cases {
		for ipOff := netsim.IPv4(0); ipOff < 50; ipOff++ {
			d := s.backoffDelay(netsim.MustParseIPv4("10.0.0.1")+ipOff, 23, c.attempt)
			if d < c.min || d > c.max {
				t.Fatalf("attempt %d: delay %v outside [%v, %v]", c.attempt, d, c.min, c.max)
			}
		}
	}

	// Pure function: identical inputs, identical delay; distinct targets and
	// attempts draw distinct jitter (not all collapsed onto one value).
	ip := netsim.MustParseIPv4("10.0.0.7")
	if s.backoffDelay(ip, 23, 1) != s.backoffDelay(ip, 23, 1) {
		t.Fatal("backoffDelay is not deterministic")
	}
	seen := make(map[time.Duration]bool)
	for off := netsim.IPv4(0); off < 64; off++ {
		seen[s.backoffDelay(ip+off, 23, 1)] = true
	}
	if len(seen) < 8 {
		t.Fatalf("jitter nearly constant across targets: %d distinct values of 64", len(seen))
	}

	// Two scanners with the same seed agree on every delay (the cross-worker
	// determinism the retransmit loop depends on); different seeds do not all
	// agree.
	s2 := NewScanner(Config{Network: netsim.NewNetwork(netsim.NewSimClock(netsim.ExperimentStart)), Prefix: netsim.MustParsePrefix("10.0.0.0/24")})
	for off := netsim.IPv4(0); off < 64; off++ {
		if s.backoffDelay(ip+off, 23, 2) != s2.backoffDelay(ip+off, 23, 2) {
			t.Fatal("same-seed scanners disagree on the backoff schedule")
		}
	}
}
