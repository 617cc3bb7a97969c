package netsim

import (
	"sync"
	"testing"
)

// TestProviderEqualPrefixTieBreak pins the documented tie-break for
// overlapping registrations of equal length: the later registration wins,
// and a later registration whose provider returns nil falls through to the
// earlier one rather than shadowing it.
func TestProviderEqualPrefixTieBreak(t *testing.T) {
	type namedHost struct {
		testHost
		name string
	}
	prefix := MustParsePrefix("10.0.0.0/16")
	ip := MustParseIPv4("10.0.1.2")

	n := NewNetwork(NewSimClock(ExperimentStart))
	n.AddProvider(prefix, HostProviderFunc(func(IPv4) Host { return namedHost{name: "first"} }))
	n.AddProvider(prefix, HostProviderFunc(func(IPv4) Host { return namedHost{name: "second"} }))
	if got := n.lookupHost(ip).(namedHost).name; got != "second" {
		t.Fatalf("equal-length tie: got %q, want later registration %q", got, "second")
	}

	// A later registration that answers nil does not shadow the earlier one.
	n2 := NewNetwork(NewSimClock(ExperimentStart))
	n2.AddProvider(prefix, HostProviderFunc(func(IPv4) Host { return namedHost{name: "first"} }))
	n2.AddProvider(prefix, HostProviderFunc(func(IPv4) Host { return nil }))
	if h := n2.lookupHost(ip); h == nil || h.(namedHost).name != "first" {
		t.Fatalf("nil later registration must fall through to the earlier one, got %v", h)
	}
}

// TestProviderPrecedenceOverlapping pins the full precedence order across
// overlapping registrations of different lengths mixed with equal-length
// duplicates: most-specific wins, ties go to the later registration.
func TestProviderPrecedenceOverlapping(t *testing.T) {
	type namedHost struct {
		testHost
		name string
	}
	named := func(name string) HostProvider {
		return HostProviderFunc(func(IPv4) Host { return namedHost{name: name} })
	}
	n := NewNetwork(NewSimClock(ExperimentStart))
	n.AddProvider(MustParsePrefix("10.0.0.0/8"), named("wide"))
	n.AddProvider(MustParsePrefix("10.1.0.0/16"), named("mid-a"))
	n.AddProvider(MustParsePrefix("10.1.2.0/24"), named("narrow"))
	n.AddProvider(MustParsePrefix("10.1.0.0/16"), named("mid-b")) // duplicate /16, later wins

	cases := map[string]string{
		"10.1.2.3": "narrow", // longest prefix wins over both /16s and the /8
		"10.1.9.9": "mid-b",  // equal-length duplicate: later registration
		"10.9.9.9": "wide",   // only the /8 covers it
	}
	for addr, want := range cases {
		h := n.lookupHost(MustParseIPv4(addr))
		if got := h.(namedHost).name; got != want {
			t.Errorf("lookupHost(%s) = %q, want %q", addr, got, want)
		}
	}
	if h := n.lookupHost(MustParseIPv4("11.0.0.1")); h != nil {
		t.Fatalf("uncovered address resolved to %v", h)
	}
}

// TestSnapshotVisibleAfterRegistration checks copy-on-write registrations
// become visible to traffic issued afterwards.
func TestSnapshotVisibleAfterRegistration(t *testing.T) {
	n := NewNetwork(NewSimClock(ExperimentStart))
	dst := Endpoint{IP: MustParseIPv4("44.1.2.3"), Port: 23}
	var (
		mu   sync.Mutex
		seen int
	)

	// Before any observer: emit must be a no-op.
	n.SynProbe(Endpoint{IP: 1, Port: 1}, dst, ProbeOptions{})

	n.AddObserver(MustParsePrefix("44.0.0.0/8"), ObserverFunc(func(ProbeEvent) {
		mu.Lock()
		seen++
		mu.Unlock()
	}))
	n.SynProbe(Endpoint{IP: 1, Port: 1}, dst, ProbeOptions{})
	mu.Lock()
	defer mu.Unlock()
	if seen != 1 {
		t.Fatalf("observer saw %d events, want 1 (only post-registration traffic)", seen)
	}
}

// TestObserverShortPrefix exercises the top-octet pre-check with an
// observer prefix shorter than /8, which spans multiple top octets.
func TestObserverShortPrefix(t *testing.T) {
	n := NewNetwork(NewSimClock(ExperimentStart))
	var (
		mu   sync.Mutex
		seen []IPv4
	)
	n.AddObserver(MustParsePrefix("44.0.0.0/6"), ObserverFunc(func(ev ProbeEvent) {
		mu.Lock()
		seen = append(seen, ev.Dst.IP)
		mu.Unlock()
	}))
	src := Endpoint{IP: 1, Port: 1}
	for _, addr := range []string{"44.0.0.1", "45.1.1.1", "47.255.255.255", "48.0.0.1", "43.255.255.255"} {
		n.SynProbe(src, Endpoint{IP: MustParseIPv4(addr), Port: 23}, ProbeOptions{})
	}
	mu.Lock()
	defer mu.Unlock()
	if len(seen) != 3 {
		t.Fatalf("observer saw %d events, want 3 (44..47 covered, 43 and 48 not): %v", len(seen), seen)
	}
}

// TestConcurrentRegistrationAndLookup races copy-on-write registrations
// against the lock-free read path (meaningful under -race).
func TestConcurrentRegistrationAndLookup(t *testing.T) {
	n := NewNetwork(NewSimClock(ExperimentStart))
	n.AddProvider(MustParsePrefix("10.0.0.0/8"), HostProviderFunc(func(IPv4) Host { return testHost{} }))
	n.AddObserver(MustParsePrefix("44.0.0.0/8"), ObserverFunc(func(ProbeEvent) {}))

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				n.lookupHost(IPv4(uint32(10)<<24 | uint32(w)<<16 | uint32(i)))
				n.emit(ProbeEvent{Dst: Endpoint{IP: MustParseIPv4("44.0.0.1"), Port: 23}})
			}
		}(w)
	}
	for i := 0; i < 32; i++ {
		n.AddProvider(NewPrefix(IPv4(uint32(10)<<24|uint32(i)<<16), 16),
			HostProviderFunc(func(IPv4) Host { return nil }))
		n.AddObserver(NewPrefix(IPv4(uint32(44)<<24|uint32(i)<<16), 16),
			ObserverFunc(func(ProbeEvent) {}))
	}
	close(stop)
	wg.Wait()

	if h := n.lookupHost(MustParseIPv4("10.31.0.1")); h == nil {
		t.Fatal("nil carve-out must fall through to the wide provider")
	}
}

// TestPrefixSetOverlaps covers the disjointness pre-check used by the scan
// feed path.
func TestPrefixSetOverlaps(t *testing.T) {
	s := NewPrefixSet(MustParsePrefix("192.168.0.0/16"), MustParsePrefix("10.0.0.0/8"))
	cases := []struct {
		prefix string
		want   bool
	}{
		{"192.168.1.0/24", true}, // inside a set prefix
		{"192.0.0.0/8", true},    // contains a set prefix
		{"10.0.0.0/8", true},     // exact
		{"50.0.0.0/16", false},
		{"0.0.0.0/0", true}, // contains everything
	}
	for _, c := range cases {
		if got := s.Overlaps(MustParsePrefix(c.prefix)); got != c.want {
			t.Errorf("Overlaps(%s) = %v, want %v", c.prefix, got, c.want)
		}
	}
	if (&PrefixSet{}).Overlaps(MustParsePrefix("0.0.0.0/0")) {
		t.Error("empty set overlaps nothing")
	}
}
