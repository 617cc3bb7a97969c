package scan

import (
	"context"
	"testing"
	"time"

	"openhire/internal/iot"
	"openhire/internal/netsim"
)

// TestRateLimiterValidation covers the period-zero pitfall: perSec beyond
// 1e9 used to truncate the period to zero, silently disabling throttling.
func TestRateLimiterValidation(t *testing.T) {
	if r := newRateLimiter(2_000_000_000); r.period <= 0 {
		t.Fatalf("perSec > 1e9: period = %v, throttling disabled", r.period)
	}
	if r := newRateLimiter(0); r.period != time.Second {
		t.Fatalf("perSec 0: period = %v, want 1s", r.period)
	}
	if r := newRateLimiter(-5); r.period != time.Second {
		t.Fatalf("negative perSec: period = %v, want 1s", r.period)
	}
	if r := newRateLimiter(1000); r.period != time.Millisecond {
		t.Fatalf("perSec 1000: period = %v, want 1ms", r.period)
	}
}

// TestRateLimiterSteadyStateAfterIdle asserts an idle gap does not bank
// tokens: the schedule restarts at the current time, so a burst after idle
// is bounded by the grant horizon rather than the gap length.
func TestRateLimiterSteadyStateAfterIdle(t *testing.T) {
	r := newRateLimiter(1000) // 1ms per token
	r.next = time.Now().Add(-time.Hour)

	granted := r.reserve(context.Background(), 1<<20)
	if max := int(maxGrantHorizon/r.period) + 1; granted > max {
		t.Fatalf("granted %d tokens after idle gap, want ≤ %d", granted, max)
	}
	if lag := time.Until(r.next); lag < -50*time.Millisecond {
		t.Fatalf("schedule still %v in the past after reserve", -lag)
	}
}

// TestRateLimiterBatchedGrant checks reserve grants at most the requested
// count and never more than the horizon allows.
func TestRateLimiterBatchedGrant(t *testing.T) {
	r := newRateLimiter(100_000) // 10µs per token
	if n := r.reserve(context.Background(), 4); n < 1 || n > 4 {
		t.Fatalf("reserve(4) granted %d", n)
	}
	// A huge request is clamped by the grant horizon.
	if n := r.reserve(context.Background(), 1<<30); n > int(maxGrantHorizon/r.period) {
		t.Fatalf("reserve granted %d tokens, beyond the horizon", n)
	}
}

// TestScanThrottled asserts the batched limiter still enforces the rate
// end to end: a throttled sweep cannot finish faster than tokens allow,
// whether it runs as one segment per module or commits every 64 targets
// (the checkpointed and served paths, which used to throttle retransmits
// only).
func TestScanThrottled(t *testing.T) {
	for _, tc := range []struct {
		name     string
		onCommit func(*SegmentedState) error
	}{
		{"plain", nil},
		{"commit every 64", func(*SegmentedState) error { return nil }},
	} {
		n, _, _ := buildTestWorld(t, 1)
		prefix := netsim.MustParsePrefix("50.0.0.0/26") // 64 addresses, 128 probes
		s := NewScanner(Config{
			Network: n, Source: 1, Prefix: prefix, Seed: 14,
			Workers: 8, RatePerSec: 1000,
		})
		start := time.Now()
		_, stats, err := s.Run(context.Background(), []ProbeModule{TelnetModule{}}, nil, 64, tc.onCommit)
		elapsed := time.Since(start)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if st := stats[iot.ProtoTelnet]; st.Probed != 128 {
			t.Fatalf("%s: probed %d, want 128", tc.name, st.Probed)
		}
		// 128 probes at 1000/s need ≥ ~128ms minus the horizon's head start.
		if minimum := 128*time.Millisecond - maxGrantHorizon; elapsed < minimum {
			t.Fatalf("%s: throttled scan finished in %v, want ≥ %v", tc.name, elapsed, minimum)
		}
	}
}

// TestBlocklistDisjointFastPath ensures dropping the blocklist for
// disjoint prefixes does not change coverage, and that overlapping
// blocklists still exclude.
func TestBlocklistDisjointFastPath(t *testing.T) {
	prefix := netsim.MustParsePrefix("50.0.0.0/24")
	bl := netsim.NewPrefixSet(netsim.MustParsePrefix("192.168.0.0/16"))
	it := NewAddressIterator(prefix, 3, bl)
	count := 0
	for {
		if _, ok := it.Next(); !ok {
			break
		}
		count++
	}
	if count != 256 {
		t.Fatalf("disjoint blocklist: visited %d addresses, want 256", count)
	}

	bl.Add(netsim.MustParsePrefix("50.0.0.128/25"))
	it = NewAddressIterator(prefix, 3, bl)
	count = 0
	for {
		ip, ok := it.Next()
		if !ok {
			break
		}
		if uint32(ip)&0x80 == 0x80 && uint32(ip)>>8 == uint32(netsim.MustParseIPv4("50.0.0.0"))>>8 {
			t.Fatalf("blocklisted address %v visited", ip)
		}
		count++
	}
	if count != 128 {
		t.Fatalf("overlapping blocklist: visited %d addresses, want 128", count)
	}
}
