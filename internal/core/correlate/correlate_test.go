package correlate

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"sort"
	"testing"

	"openhire/internal/checkpoint/wire"
	"openhire/internal/geo"
	"openhire/internal/honeypot"
	"openhire/internal/intel"
	"openhire/internal/iot"
	"openhire/internal/netsim"
	"openhire/internal/telescope"
)

func ips(vals ...uint32) []netsim.IPv4 {
	out := make([]netsim.IPv4, len(vals))
	for i, v := range vals {
		out[i] = netsim.IPv4(v)
	}
	return out
}

func TestIntersectSplits(t *testing.T) {
	mis := NewIPSet(ips(1, 2, 3, 4, 5))
	hp := NewIPSet(ips(1, 3, 100))
	tel := NewIPSet(ips(2, 3, 200))
	x := Intersect(mis, hp, tel)
	if len(x.HoneypotOnly) != 1 || x.HoneypotOnly[0] != 1 {
		t.Fatalf("hp-only %v", x.HoneypotOnly)
	}
	if len(x.TelescopeOnly) != 1 || x.TelescopeOnly[0] != 2 {
		t.Fatalf("tel-only %v", x.TelescopeOnly)
	}
	if len(x.Both) != 1 || x.Both[0] != 3 {
		t.Fatalf("both %v", x.Both)
	}
	if x.Total() != 3 || len(x.All()) != 3 {
		t.Fatalf("total %d", x.Total())
	}
}

func TestIntersectIgnoresNonMisconfigured(t *testing.T) {
	x := Intersect(NewIPSet(nil), NewIPSet(ips(1)), NewIPSet(ips(1)))
	if x.Total() != 0 {
		t.Fatal("attackers outside the misconfigured set counted")
	}
}

func TestSourceExtraction(t *testing.T) {
	events := []honeypot.Event{{Src: 5}, {Src: 5}, {Src: 6}}
	hs := HoneypotSources(events)
	if len(hs) != 2 || !hs.Contains(5) {
		t.Fatalf("honeypot sources %v", hs)
	}
	flows := []*telescope.FlowTuple{{SrcIP: 9}, {SrcIP: 9}, {SrcIP: 10}}
	ts := TelescopeSources(flows)
	if len(ts) != 2 || !ts.Contains(10) {
		t.Fatalf("telescope sources %v", ts)
	}
}

func TestExtendWithCensys(t *testing.T) {
	store := intel.NewCensys()
	store.Tag(50, "camera")
	store.Tag(51, "router")
	store.Tag(52, "ip phone")
	store.Tag(53, "camera") // already in misconfigured set: skipped

	already := NewIPSet(ips(53))
	hp := NewIPSet(ips(50, 52, 53, 99)) // 99 untagged
	tel := NewIPSet(ips(51, 52, 53))
	ext := ExtendWithCensys(store, already, hp, tel)
	if ext.Total() != 3 {
		t.Fatalf("total %d", ext.Total())
	}
	if len(ext.HoneypotOnly) != 1 || ext.HoneypotOnly[0] != 50 {
		t.Fatalf("hp-only %v", ext.HoneypotOnly)
	}
	if len(ext.TelescopeOnly) != 1 || ext.TelescopeOnly[0] != 51 {
		t.Fatalf("tel-only %v", ext.TelescopeOnly)
	}
	if len(ext.Both) != 1 || ext.Both[0] != 52 {
		t.Fatalf("both %v", ext.Both)
	}
	if ext.TypeCounts["camera"] != 1 || ext.TypeCounts["router"] != 1 {
		t.Fatalf("type counts %v", ext.TypeCounts)
	}
}

func TestCompareScanningServices(t *testing.T) {
	rdns := geo.NewRDNS(1)
	gn := intel.NewGreyNoise(1, 1.0) // full coverage for determinism here
	var sources []netsim.IPv4
	// 10 scanning-service IPs, 6 registered with GreyNoise.
	for i := uint32(0); i < 10; i++ {
		ip := netsim.IPv4(0x50000000 + i)
		rdns.RegisterService(ip, "shodan.io")
		if i < 6 {
			gn.RegisterBenign(ip)
		}
		sources = append(sources, ip)
	}
	// 5 plain sources.
	for i := uint32(0); i < 5; i++ {
		sources = append(sources, netsim.IPv4(0x60000000+i))
	}
	cmp := CompareScanningServices(sources, rdns, gn)
	if cmp.Ours != 10 {
		t.Fatalf("ours %d", cmp.Ours)
	}
	if cmp.GreyNoise != 6 || cmp.AgreedBenign != 6 {
		t.Fatalf("gn %d agreed %d", cmp.GreyNoise, cmp.AgreedBenign)
	}
	if cmp.MissedByGN != 4 {
		t.Fatalf("missed %d", cmp.MissedByGN)
	}
}

func TestVirusTotalShares(t *testing.T) {
	vt := intel.NewVirusTotal()
	vt.FlagIP(1, 3)
	events := []honeypot.Event{
		{Protocol: iot.ProtoSMB, Src: 1},
		{Protocol: iot.ProtoSMB, Src: 2},
		{Protocol: iot.ProtoTelnet, Src: 1},
	}
	flows := []*telescope.FlowTuple{
		{SrcIP: 1, DstPort: 23},
		{SrcIP: 3, DstPort: 23},
		{SrcIP: 4, DstPort: 99}, // unbucketed port: ignored
	}
	shares := VirusTotalShares(events, flows, vt)
	byKey := make(map[string]MaliciousShare)
	for _, s := range shares {
		byKey[string(s.Protocol)+s.Origin] = s
	}
	if s := byKey["smbH"]; s.Sources != 2 || s.Flagged != 1 || s.Share() != 0.5 {
		t.Fatalf("smb H %+v", s)
	}
	if s := byKey["telnetT"]; s.Sources != 2 || s.Flagged != 1 {
		t.Fatalf("telnet T %+v", s)
	}
	if _, ok := byKey["telnetH"]; !ok {
		t.Fatal("telnet H missing")
	}
}

func TestMaliciousShareZeroSources(t *testing.T) {
	if (MaliciousShare{}).Share() != 0 {
		t.Fatal("zero-source share")
	}
}

func TestReverseLookupStudy(t *testing.T) {
	rdns := geo.NewRDNS(2)
	var sources []netsim.IPv4
	for i := uint32(0); i < 5000; i++ {
		sources = append(sources, netsim.IPv4(0x70000000+i*13))
	}
	f := ReverseLookupStudy(sources, rdns)
	if f.RegisteredDomains == 0 {
		t.Fatal("no domains found")
	}
	if f.WithWebpage == 0 || f.WithWebpage >= f.RegisteredDomains {
		t.Fatalf("webpages %d of %d domains", f.WithWebpage, f.RegisteredDomains)
	}
}

func TestIPSetSorted(t *testing.T) {
	s := NewIPSet(ips(5, 1, 3))
	got := s.Sorted()
	if len(got) != 3 || got[0] != 1 || got[2] != 5 {
		t.Fatalf("sorted %v", got)
	}
}

// TestIPSetMarshalMatchesReference pins IPSet's hand-appended JSON to the
// rendering it replaced — sort.Slice plus json.Marshal of the []uint32 — on
// its own and as the omitempty member of a checkpointed struct, where a nil
// and an emptied set must both vanish.
func TestIPSetMarshalMatchesReference(t *testing.T) {
	reference := func(s IPSet) []byte {
		ips := make([]uint32, 0, len(s))
		for ip := range s {
			ips = append(ips, uint32(ip))
		}
		sort.Slice(ips, func(i, j int) bool { return ips[i] < ips[j] })
		data, err := json.Marshal(ips)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	type holder struct {
		Before int   `json:"before"`
		Set    IPSet `json:"set,omitempty"`
	}
	sets := map[string]IPSet{
		"nil":     nil,
		"emptied": {},
		"one":     {0: {}},
		"edges":   {0: {}, 1: {}, 9: {}, 10: {}, 4294967295: {}, 4294967294: {}, 1000000000: {}, 999999999: {}},
		"many":    {},
	}
	for i := uint32(0); i < 5000; i++ {
		sets["many"][netsim.IPv4(i*2654435761)] = struct{}{}
	}
	for name, s := range sets {
		got, err := s.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		if want := reference(s); !bytes.Equal(got, want) {
			t.Errorf("%s: MarshalJSON = %.80s, reference rendering %.80s", name, got, want)
		}
		held, err := json.Marshal(holder{Before: 1, Set: s})
		if err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprintf(`{"before":1,"set":%s}`, reference(s))
		if len(s) == 0 {
			want = `{"before":1}`
		}
		if string(held) != want {
			t.Errorf("%s: as a struct member = %.80s, want %.80s", name, held, want)
		}
	}
}

// TestIPSetBinaryRoundTrip asserts ReadIPSet(AppendBinary(s)) == s over the
// address-space edges and a generated set, that nil and emptied sets encode
// alike and decode to nil, and that deltas which would repeat an address or
// leave the address space are refused.
func TestIPSetBinaryRoundTrip(t *testing.T) {
	sets := map[string]IPSet{
		"nil":     nil,
		"emptied": {},
		"zero":    {0: {}},
		"max":     {4294967295: {}},
		"edges":   {0: {}, 1: {}, 127: {}, 128: {}, 4294967294: {}, 4294967295: {}},
		"many":    {},
	}
	for i := uint32(0); i < 5000; i++ {
		sets["many"][netsim.IPv4(i*2654435761)] = struct{}{}
	}
	for name, s := range sets {
		data := s.AppendBinary([]byte{0xaa})
		r := wire.NewReader(data[1:])
		got := ReadIPSet(r)
		if err := r.Close(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(s) == 0 {
			if got != nil || len(data) != 2 {
				t.Errorf("%s: encoded to %d bytes, decoded to %v; want one count byte and nil", name, len(data)-1, got)
			}
			continue
		}
		if !reflect.DeepEqual(got, s) {
			t.Errorf("%s: decoded %d addresses, want %d", name, len(got), len(s))
		}
	}
	for name, payload := range map[string][]byte{
		"repeat":   {2, 5, 0},
		"overflow": {2, 0xff, 0xff, 0xff, 0xff, 0x0f, 1},
		"count":    {3, 1, 1},
	} {
		r := wire.NewReader(payload)
		if s := ReadIPSet(r); r.Err() == nil || s != nil {
			t.Errorf("%s: accepted %v", name, s)
		}
	}
}

// TestCountMatchesIntersect asserts the daemon's counts size the report's
// lists, and SharedSources is the plain two-set overlap, on sets that
// overlap every which way.
func TestCountMatchesIntersect(t *testing.T) {
	var mis, hp, tel IPSet
	for i := uint32(0); i < 3000; i++ {
		ip := netsim.IPv4(i * 2654435761)
		switch {
		case i%3 == 0:
			mis.Add(ip)
		case i%5 == 0:
			hp.Add(ip)
		}
		if i%2 == 0 {
			tel.Add(ip)
		}
		if i%7 == 0 {
			hp.Add(ip)
		}
	}
	x := Intersect(mis, hp, tel)
	c := Count(mis, hp, tel)
	if c.HoneypotOnly != len(x.HoneypotOnly) || c.TelescopeOnly != len(x.TelescopeOnly) || c.Both != len(x.Both) {
		t.Errorf("Count = %+v, Intersect lists %d/%d/%d", c, len(x.HoneypotOnly), len(x.TelescopeOnly), len(x.Both))
	}
	if c.HoneypotOnly == 0 || c.TelescopeOnly == 0 || c.Both == 0 {
		t.Fatalf("degenerate fixture: %+v", c)
	}
	shared := 0
	for ip := range hp {
		if tel.Contains(ip) {
			shared++
		}
	}
	if c.SharedSources != shared || Count(mis, tel, hp).SharedSources != shared {
		t.Errorf("SharedSources = %d, want %d", c.SharedSources, shared)
	}
	if (Count(nil, nil, nil) != Counts{}) {
		t.Error("empty sets count something")
	}
}
