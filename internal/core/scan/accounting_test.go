package scan

import (
	"context"
	"testing"
	"time"

	"openhire/internal/netsim"
	"openhire/internal/netsim/faults"
)

// TestBlockedCounted is the regression test for the dead Stats.Blocked
// field: NewAddressIterator filtered blocklisted addresses without counting
// them, so a scan over a blocklisted range reported Blocked == 0 and the
// coverage accounting silently lost those addresses.
func TestBlockedCounted(t *testing.T) {
	n, _, _ := buildTestWorld(t, 100)
	prefix := netsim.MustParsePrefix("50.0.0.0/22")
	blocked := netsim.MustParsePrefix("50.0.1.0/24")
	s := NewScanner(Config{
		Network:   n,
		Source:    netsim.MustParseIPv4("130.226.0.1"),
		Prefix:    prefix,
		Seed:      5,
		Workers:   8,
		Blocklist: netsim.NewPrefixSet(blocked),
	})
	_, st := runModule(context.Background(), s, TelnetModule{})
	if st.Blocked == 0 {
		t.Fatal("scan over a blocklisted /24 reported Stats.Blocked == 0")
	}
	if want := blocked.Size(); st.Blocked != want {
		t.Fatalf("Blocked = %d, want the full covered /24 = %d", st.Blocked, want)
	}
	// The blocked addresses must really be excluded from probing: Blocked
	// addresses plus first transmissions cover the prefix exactly.
	ports := uint64(len(TelnetModule{}.Ports()))
	if got, want := st.Probed-st.Retransmits+st.Blocked*ports, prefix.Size()*ports; got != want {
		t.Fatalf("first transmissions + blocked×ports = %d, want %d", got, want)
	}
}

// TestBlockedZeroWhenDisjoint pins the fast path: a blocklist that cannot
// overlap the prefix is dropped entirely and counts nothing.
func TestBlockedZeroWhenDisjoint(t *testing.T) {
	n, _, _ := buildTestWorld(t, 100)
	prefix := netsim.MustParsePrefix("50.0.0.0/23")
	s := NewScanner(Config{
		Network: n, Source: 1, Prefix: prefix, Seed: 5, Workers: 4,
		Blocklist: netsim.NewPrefixSet(netsim.MustParsePrefix("10.0.0.0/8")),
	})
	if _, st := runModule(context.Background(), s, TelnetModule{}); st.Blocked != 0 {
		t.Fatalf("disjoint blocklist counted %d blocked addresses", st.Blocked)
	}
}

// TestBackoffBaseClamp is the regression test for the shift-overflow bug:
// `base << attempt` wraps int64 for large attempt ordinals, and a
// wrapped-but-positive value below cap evaded the old `d <= 0 || d > cap`
// guard, producing a non-monotone schedule. The table walks attempts 0–70
// for both the default knobs and an adversarial base whose wrap lands
// positive and small (base = 2^31+1 ns at attempt 33 used to come out as
// 2^33 ns ≈ 8.6s, below the 10s cap).
func TestBackoffBaseClamp(t *testing.T) {
	cases := []struct {
		name      string
		base, cap time.Duration
	}{
		{"defaults", 100 * time.Millisecond, 1600 * time.Millisecond},
		{"wrap-positive", time.Duration(1<<31 + 1), 10 * time.Second},
		{"1ns-base", time.Nanosecond, time.Second},
		{"base-above-cap", 2 * time.Second, time.Second},
	}
	for _, c := range cases {
		prev := time.Duration(0)
		for attempt := uint32(0); attempt <= 70; attempt++ {
			d := backoffBase(c.base, c.cap, attempt)
			if d <= 0 {
				t.Fatalf("%s: attempt %d: non-positive delay %v", c.name, attempt, d)
			}
			if d > c.cap {
				t.Fatalf("%s: attempt %d: delay %v beyond cap %v", c.name, attempt, d, c.cap)
			}
			if d < prev {
				t.Fatalf("%s: attempt %d: schedule not monotone (%v after %v)",
					c.name, attempt, d, prev)
			}
			if attempt >= backoffShiftMax && d != c.cap {
				t.Fatalf("%s: attempt %d: delay %v, want saturated cap %v", c.name, attempt, d, c.cap)
			}
			prev = d
		}
		// The un-clamped range still doubles: exponential growth is the point.
		if c.base <= c.cap/2 {
			if d0, d1 := backoffBase(c.base, c.cap, 0), backoffBase(c.base, c.cap, 1); d1 != 2*d0 {
				t.Fatalf("%s: attempt 1 delay %v, want double attempt 0's %v", c.name, d1, d0)
			}
		}
	}
}

// TestStatsConservation pins the accounting identity the manifest relies on,
// for faulted and unfaulted runs across 1/7/32 workers: every transmission
// lands in exactly one outcome class, and first transmissions plus skipped
// and blocked targets tile the scanned prefix exactly.
func TestStatsConservation(t *testing.T) {
	prefix := netsim.MustParsePrefix("50.0.0.0/22")
	blocklist := netsim.NewPrefixSet(netsim.MustParsePrefix("50.0.2.0/24"))
	profiles := map[string]faults.Profile{
		"unfaulted":  faults.Zero(),
		"calibrated": faults.Calibrated(),
	}
	for name, profile := range profiles {
		for _, workers := range []int{1, 7, 32} {
			n, _, _ := buildTestWorld(t, 150)
			if m := faults.New(profile); m != nil {
				n.SetFaults(m)
			}
			s := NewScanner(Config{
				Network:   n,
				Source:    netsim.MustParseIPv4("130.226.0.1"),
				Prefix:    prefix,
				Seed:      5,
				Workers:   workers,
				Blocklist: blocklist,
			})
			for _, m := range AllModules() {
				_, st := runModule(context.Background(), s, m)
				outcomes := st.Responded + st.Timeouts + st.Resets + st.Partials + st.Negatives
				if st.Probed != outcomes {
					t.Fatalf("%s/%s/%d workers: Probed %d != outcome sum %d (%+v)",
						name, m.Protocol(), workers, st.Probed, outcomes, st)
				}
				ports := uint64(len(m.Ports()))
				covered := (st.Probed - st.Retransmits) + st.BreakerSkipped + st.Blocked*ports
				if want := prefix.Size() * ports; covered != want {
					t.Fatalf("%s/%s/%d workers: coverage %d != prefix targets %d (%+v)",
						name, m.Protocol(), workers, covered, want, st)
				}
			}
		}
	}
}
