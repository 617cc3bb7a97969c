package netsim

import (
	"testing"
	"testing/quick"
)

func TestParseIPv4(t *testing.T) {
	cases := []struct {
		in   string
		want IPv4
		ok   bool
	}{
		{"0.0.0.0", 0, true},
		{"255.255.255.255", 0xffffffff, true},
		{"192.0.2.1", 0xc0000201, true},
		{"10.0.0.1", 0x0a000001, true},
		{"1.2.3", 0, false},
		{"1.2.3.4.5", 0, false},
		{"256.0.0.1", 0, false},
		{"a.b.c.d", 0, false},
		{"", 0, false},
		{"-1.0.0.0", 0, false},
	}
	for _, c := range cases {
		got, err := ParseIPv4(c.in)
		if c.ok && (err != nil || got != c.want) {
			t.Errorf("ParseIPv4(%q) = %v, %v; want %v", c.in, got, err, c.want)
		}
		if !c.ok && err == nil {
			t.Errorf("ParseIPv4(%q) succeeded, want error", c.in)
		}
	}
}

func TestIPv4RoundTrip(t *testing.T) {
	if err := quick.Check(func(v uint32) bool {
		ip := IPv4(v)
		back, err := ParseIPv4(ip.String())
		return err == nil && back == ip
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIPv4Octets(t *testing.T) {
	ip := MustParseIPv4("1.2.3.4")
	if got := ip.Octets(); got != [4]byte{1, 2, 3, 4} {
		t.Fatalf("Octets() = %v", got)
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustParseIPv4 did not panic")
		}
	}()
	MustParseIPv4("not-an-ip")
}

func TestEndpointString(t *testing.T) {
	ep := Endpoint{IP: MustParseIPv4("10.1.2.3"), Port: 1883}
	if got := ep.String(); got != "10.1.2.3:1883" {
		t.Fatalf("Endpoint.String() = %q", got)
	}
}

func TestTransportString(t *testing.T) {
	if TCP.String() != "tcp" || UDP.String() != "udp" {
		t.Fatal("transport names wrong")
	}
	if Transport(9).String() != "transport(9)" {
		t.Fatal("unknown transport name wrong")
	}
}

func TestParsePrefix(t *testing.T) {
	p := MustParsePrefix("10.0.0.0/8")
	if p.Size() != 1<<24 {
		t.Fatalf("Size() = %d", p.Size())
	}
	if !p.Contains(MustParseIPv4("10.255.0.1")) {
		t.Fatal("Contains failed for in-range address")
	}
	if p.Contains(MustParseIPv4("11.0.0.0")) {
		t.Fatal("Contains matched out-of-range address")
	}
	if p.First() != MustParseIPv4("10.0.0.0") || p.Last() != MustParseIPv4("10.255.255.255") {
		t.Fatal("First/Last wrong")
	}
}

func TestParsePrefixCanonicalizes(t *testing.T) {
	p := MustParsePrefix("10.5.7.9/8")
	if p.IP != MustParseIPv4("10.0.0.0") {
		t.Fatalf("base not canonicalized: %v", p.IP)
	}
}

func TestParsePrefixErrors(t *testing.T) {
	for _, in := range []string{"10.0.0.0", "10.0.0.0/33", "10.0.0.0/-1", "x/8", "10.0.0.0/x"} {
		if _, err := ParsePrefix(in); err == nil {
			t.Errorf("ParsePrefix(%q) succeeded, want error", in)
		}
	}
}

func TestPrefixNthIndex(t *testing.T) {
	p := MustParsePrefix("192.168.0.0/24")
	ip := p.Nth(200)
	if ip != MustParseIPv4("192.168.0.200") {
		t.Fatalf("Nth(200) = %v", ip)
	}
	idx, ok := p.Index(ip)
	if !ok || idx != 200 {
		t.Fatalf("Index = %d, %v", idx, ok)
	}
	if _, ok := p.Index(MustParseIPv4("192.168.1.0")); ok {
		t.Fatal("Index matched outside address")
	}
}

func TestPrefixNthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Nth out of range did not panic")
		}
	}()
	MustParsePrefix("10.0.0.0/24").Nth(256)
}

func TestPrefixZeroBits(t *testing.T) {
	p := MustParsePrefix("0.0.0.0/0")
	if p.Size() != 1<<32 {
		t.Fatalf("/0 Size() = %d", p.Size())
	}
	if !p.Contains(MustParseIPv4("255.1.2.3")) {
		t.Fatal("/0 must contain everything")
	}
}

func TestPrefixSet(t *testing.T) {
	s := NewPrefixSet(
		MustParsePrefix("10.0.0.0/8"),
		MustParsePrefix("192.168.0.0/16"),
		MustParsePrefix("192.168.1.0/24"), // nested
	)
	if s.Len() != 3 {
		t.Fatalf("Len() = %d", s.Len())
	}
	for _, in := range []string{"10.1.2.3", "192.168.1.4", "192.168.200.1"} {
		if !s.Contains(MustParseIPv4(in)) {
			t.Errorf("Contains(%s) = false", in)
		}
	}
	for _, out := range []string{"11.0.0.1", "192.169.0.1", "8.8.8.8"} {
		if s.Contains(MustParseIPv4(out)) {
			t.Errorf("Contains(%s) = true", out)
		}
	}
}

func TestPrefixSetDuplicates(t *testing.T) {
	s := NewPrefixSet()
	s.Add(MustParsePrefix("10.0.0.0/8"))
	s.Add(MustParsePrefix("10.0.0.0/8"))
	if s.Len() != 1 {
		t.Fatalf("duplicate add grew set: %d", s.Len())
	}
}

func TestPrefixSetZeroValue(t *testing.T) {
	var s PrefixSet
	if s.Contains(MustParseIPv4("1.2.3.4")) {
		t.Fatal("empty set contained an address")
	}
	s.Add(MustParsePrefix("1.0.0.0/8"))
	if !s.Contains(MustParseIPv4("1.2.3.4")) {
		t.Fatal("add to zero-value set failed")
	}
}

func TestPrefixSetProperty(t *testing.T) {
	// Membership in the set must agree with a linear scan over the prefixes.
	prefixes := []Prefix{
		MustParsePrefix("0.0.0.0/8"),
		MustParsePrefix("100.64.0.0/10"),
		MustParsePrefix("127.0.0.0/8"),
		MustParsePrefix("224.0.0.0/4"),
	}
	s := NewPrefixSet(prefixes...)
	if err := quick.Check(func(v uint32) bool {
		ip := IPv4(v)
		want := false
		for _, p := range prefixes {
			if p.Contains(ip) {
				want = true
			}
		}
		return s.Contains(ip) == want
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPrefixesSorted(t *testing.T) {
	s := NewPrefixSet(
		MustParsePrefix("192.168.0.0/16"),
		MustParsePrefix("10.0.0.0/8"),
	)
	ps := s.Prefixes()
	if len(ps) != 2 || ps[0].IP > ps[1].IP {
		t.Fatalf("Prefixes() not sorted: %v", ps)
	}
}
