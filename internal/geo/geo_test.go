package geo

import (
	"math"
	"strings"
	"testing"

	"openhire/internal/netsim"
)

func TestCountryDeterministic(t *testing.T) {
	db := NewDB(1, nil)
	ip := netsim.MustParseIPv4("54.12.9.1")
	if db.Country(ip) != db.Country(ip) {
		t.Fatal("Country not deterministic")
	}
	db2 := NewDB(1, nil)
	if db.Country(ip) != db2.Country(ip) {
		t.Fatal("Country differs across instances with same seed")
	}
}

func TestCountrySharedWithinBlock(t *testing.T) {
	db := NewDB(2, nil)
	a := netsim.MustParseIPv4("100.50.1.1")
	b := netsim.MustParseIPv4("100.50.1.200") // same /24
	if db.Country(a) != db.Country(b) {
		t.Fatal("same /24 assigned different countries")
	}
	if db.ASN(a) != db.ASN(b) {
		t.Fatal("same /24 assigned different ASNs")
	}
}

func TestCountryDistributionMatchesWeights(t *testing.T) {
	db := NewDB(3, nil)
	counts := make(map[Country]int)
	// Sample one address per /16 block for 20k distinct blocks.
	const n = 20000
	for i := 0; i < n; i++ {
		ip := netsim.IPv4(uint32(i) << 16)
		counts[db.Country(ip)]++
	}
	usa := float64(counts["USA"]) / n
	if math.Abs(usa-0.27) > 0.02 {
		t.Fatalf("USA share %f, want ~0.27", usa)
	}
	japan := float64(counts["Japan"]) / n
	if math.Abs(japan-0.007) > 0.005 {
		t.Fatalf("Japan share %f, want ~0.007", japan)
	}
	if counts["USA"] <= counts["China"] || counts["China"] <= counts["Japan"] {
		t.Fatal("country ordering does not match Table 10")
	}
}

func TestASNRange(t *testing.T) {
	db := NewDB(4, nil)
	for i := 0; i < 1000; i++ {
		asn := db.ASN(netsim.IPv4(uint32(i) << 16))
		if asn < 1 || asn > 64495 {
			t.Fatalf("ASN %d out of public range", asn)
		}
	}
}

func TestCountryCountsSorted(t *testing.T) {
	db := NewDB(5, nil)
	var ips []netsim.IPv4
	for i := 0; i < 5000; i++ {
		ips = append(ips, netsim.IPv4(uint32(i)<<16))
	}
	counts := db.CountryCounts(ips)
	if len(counts) == 0 {
		t.Fatal("no counts")
	}
	total := 0
	for i, c := range counts {
		total += c.Count
		if i > 0 && c.Count > counts[i-1].Count {
			t.Fatal("counts not sorted descending")
		}
	}
	if total != len(ips) {
		t.Fatalf("counts sum %d != %d", total, len(ips))
	}
}

func TestRDNSDeterministic(t *testing.T) {
	r := NewRDNS(7)
	ip := netsim.MustParseIPv4("99.1.2.3")
	n1, k1 := r.Lookup(ip)
	n2, k2 := r.Lookup(ip)
	if n1 != n2 || k1 != k2 {
		t.Fatal("Lookup not deterministic")
	}
}

func TestRDNSRegisteredService(t *testing.T) {
	r := NewRDNS(7)
	ip := netsim.MustParseIPv4("71.6.1.1")
	r.RegisterService(ip, "shodan.io")
	name, kind := r.Lookup(ip)
	if kind != RDNSScanerService {
		t.Fatalf("kind = %v", kind)
	}
	if name == "" {
		t.Fatal("empty service name")
	}
}

func TestRDNSKindMix(t *testing.T) {
	r := NewRDNS(8)
	kinds := make(map[RDNSKind]int)
	const n = 20000
	for i := 0; i < n; i++ {
		_, k := r.Lookup(netsim.IPv4(i * 7919))
		kinds[k]++
	}
	if kinds[RDNSNone] == 0 || kinds[RDNSGeneric] == 0 || kinds[RDNSDomain] == 0 {
		t.Fatalf("kind mix degenerate: %v", kinds)
	}
	domFrac := float64(kinds[RDNSDomain]) / n
	if domFrac < 0.04 || domFrac > 0.11 {
		t.Fatalf("domain fraction %f outside expectation", domFrac)
	}
}

func TestHasWebpageOnlyForDomains(t *testing.T) {
	r := NewRDNS(9)
	pages, domains := 0, 0
	for i := 0; i < 50000; i++ {
		ip := netsim.IPv4(i * 104729)
		_, kind := r.Lookup(ip)
		if kind == RDNSDomain {
			domains++
			if r.HasWebpage(ip) {
				pages++
			}
		} else if r.HasWebpage(ip) {
			t.Fatalf("non-domain %v has webpage", ip)
		}
	}
	if domains == 0 {
		t.Fatal("no domains sampled")
	}
	frac := float64(pages) / float64(domains)
	// Paper: 427/797 ~ 0.536 of domains had a page.
	if math.Abs(frac-0.54) > 0.06 {
		t.Fatalf("webpage fraction %f, want ~0.54", frac)
	}
}

func TestRDNSKindString(t *testing.T) {
	want := map[RDNSKind]string{
		RDNSNone: "none", RDNSGeneric: "generic", RDNSDomain: "domain",
		RDNSScanerService: "scanning-service",
		RDNSKind(99):      "unknown",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), s)
		}
	}
}

// TestCountryIDs pins the one country table's byte form: every id from 0 (no
// country) to the table's length names a distinct label that LookupCountry
// maps back, a label outside the table is refused, the labels carry no comma
// (the telescope's CSV form writes them unescaped), the weights are positive
// (CountryID's scan skips none) and a database refuses any other table.
func TestCountryIDs(t *testing.T) {
	if len(PaperCountryWeights) > 255 {
		t.Fatalf("%d countries do not fit a CountryID", len(PaperCountryWeights))
	}
	for id := CountryID(0); int(id) <= len(PaperCountryWeights); id++ {
		label := id.Label()
		if (id == 0) != (label == "") || strings.Contains(string(label), ",") {
			t.Errorf("id %d has label %q", id, label)
		}
		if got, ok := LookupCountry(string(label)); !ok || got != id {
			t.Errorf("LookupCountry(%q) = %d, %v, want %d", label, got, ok, id)
		}
		if id > 0 && PaperCountryWeights[id-1].Weight <= 0 {
			t.Errorf("%s has weight %v", label, PaperCountryWeights[id-1].Weight)
		}
	}
	for _, label := range []string{"Atlantis", "usa", "USA ", "Korea, Republic of"} {
		if id, ok := LookupCountry(label); ok {
			t.Errorf("LookupCountry(%q) = %d, want refused", label, id)
		}
	}
	db := NewDB(6, nil)
	for i := 0; i < 1000; i++ {
		ip := netsim.IPv4(uint32(i) << 12)
		if id := db.CountryID(ip); id == 0 || db.Country(ip) != id.Label() {
			t.Fatalf("%v: CountryID %d, Country %q", ip, id, db.Country(ip))
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("NewDB accepted a country table")
		}
	}()
	NewDB(6, []CountryWeight{{"Atlantis", 1}})
}
