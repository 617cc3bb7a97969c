package netsim

import (
	"testing"
)

// benchProviders registers a realistic provider mix: one wide universe
// prefix plus a spread of more-specific carve-outs, the shape the scanner
// resolves against on every probe.
func benchProviders(n *Network) {
	dark := HostProviderFunc(func(IPv4) Host { return nil })
	live := HostProviderFunc(func(IPv4) Host { return testHost{} })
	n.AddProvider(MustParsePrefix("10.0.0.0/8"), live)
	for i := 0; i < 16; i++ {
		n.AddProvider(NewPrefix(IPv4(uint32(10)<<24|uint32(i)<<16), 16), dark)
	}
	n.AddProvider(MustParsePrefix("100.64.0.0/10"), live)
}

// BenchmarkLookupHost measures host resolution for a covered address —
// the per-probe cost the scanner pays even on a dark Internet.
func BenchmarkLookupHost(b *testing.B) {
	n := NewNetwork(NewSimClock(ExperimentStart))
	benchProviders(n)
	ip := MustParseIPv4("10.200.0.1")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if h := n.lookupHost(ip); h == nil {
			b.Fatal("expected host")
		}
	}
}

// BenchmarkLookupHostMiss measures resolution for an uncovered (dark)
// address, the overwhelmingly common case in an Internet-wide sweep.
func BenchmarkLookupHostMiss(b *testing.B) {
	n := NewNetwork(NewSimClock(ExperimentStart))
	benchProviders(n)
	ip := MustParseIPv4("203.0.113.7")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if h := n.lookupHost(ip); h != nil {
			b.Fatal("unexpected host")
		}
	}
}

// BenchmarkEmitNoObserver measures the emit fast path when no observer
// covers the destination (dark Internet, telescope elsewhere).
func BenchmarkEmitNoObserver(b *testing.B) {
	n := NewNetwork(NewSimClock(ExperimentStart))
	benchProviders(n)
	n.AddObserver(MustParsePrefix("44.0.0.0/8"), ObserverFunc(func(ProbeEvent) {}))
	ev := ProbeEvent{Dst: Endpoint{IP: MustParseIPv4("10.200.0.1"), Port: 23}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		n.emit(ev)
	}
}
