package datasets

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"slices"
	"testing"

	"openhire/internal/intel"
	"openhire/internal/iot"
	"openhire/internal/netsim"
)

func testUniverse() *iot.Universe {
	return iot.NewUniverse(iot.UniverseConfig{
		Seed:         21,
		Prefix:       netsim.MustParsePrefix("110.0.0.0/15"),
		DensityBoost: 150,
	})
}

// exposedCount counts universe hosts exposing p (excluding wild honeypots).
func exposedCount(u *iot.Universe, p iot.Protocol) int {
	prefix := u.Config().Prefix
	n := 0
	for i := uint64(0); i < prefix.Size(); i++ {
		ip := prefix.Nth(i)
		if _, ok := u.Spec(ip, p); !ok {
			continue
		}
		if _, isPot := u.WildHoneypot(ip); isPot {
			continue
		}
		n++
	}
	return n
}

func TestSonarSkipsAMQPAndXMPP(t *testing.T) {
	d := ProjectSonar(1, testUniverse())
	if d.Covers(iot.ProtoAMQP) || d.Covers(iot.ProtoXMPP) {
		t.Fatal("Sonar should not publish AMQP/XMPP datasets (Table 4: NA)")
	}
	for _, p := range []iot.Protocol{iot.ProtoTelnet, iot.ProtoMQTT, iot.ProtoCoAP, iot.ProtoUPnP} {
		if !d.Covers(p) {
			t.Fatalf("Sonar missing %s", p)
		}
	}
}

func TestSonarUndercountsTelnet(t *testing.T) {
	u := testUniverse()
	d := ProjectSonar(1, u)
	exposed := exposedCount(u, iot.ProtoTelnet)
	got := d.Count(iot.ProtoTelnet)
	if got >= exposed {
		t.Fatalf("Sonar count %d >= universe %d", got, exposed)
	}
	ratio := float64(got) / float64(exposed)
	// Table 4: 6,004,956 / 7,096,465 ≈ 0.846.
	if ratio < 0.75 || ratio > 0.95 {
		t.Fatalf("Sonar/ZMap Telnet ratio %.3f, want ~0.85", ratio)
	}
	// No 2323 listeners in Sonar data.
	for _, r := range d.Records(iot.ProtoTelnet) {
		if u.TelnetPort(r.IP) != 23 {
			t.Fatalf("Sonar indexed a 2323 listener at %v", r.IP)
		}
	}
}

func TestShodanUndercountsHighVolumeProtocols(t *testing.T) {
	u := testUniverse()
	d := Shodan(2, u)
	telnetRatio := float64(d.Count(iot.ProtoTelnet)) / float64(exposedCount(u, iot.ProtoTelnet))
	if telnetRatio > 0.08 {
		t.Fatalf("Shodan Telnet ratio %.3f, want ~0.027 (Table 4)", telnetRatio)
	}
	coapRatio := float64(d.Count(iot.ProtoCoAP)) / float64(exposedCount(u, iot.ProtoCoAP))
	if coapRatio < 0.85 {
		t.Fatalf("Shodan CoAP ratio %.3f, want ~0.955", coapRatio)
	}
}

func TestDatasetsAreSubsetsOfUniverse(t *testing.T) {
	u := testUniverse()
	for _, d := range []*Dataset{ProjectSonar(3, u), Shodan(3, u)} {
		for _, p := range iot.ScannedProtocols {
			for _, r := range d.Records(p) {
				if _, ok := u.Spec(r.IP, p); !ok {
					t.Fatalf("%s lists %v for %s but universe has no host", d.Name, r.IP, p)
				}
			}
		}
	}
}

func TestDatasetTotalAndSorted(t *testing.T) {
	u := testUniverse()
	d := Shodan(4, u)
	if d.Total() == 0 {
		t.Fatal("empty dataset")
	}
	recs := d.Records(iot.ProtoCoAP)
	for i := 1; i < len(recs); i++ {
		if recs[i].IP <= recs[i-1].IP {
			t.Fatal("records not sorted")
		}
	}
}

func TestPopulateCensys(t *testing.T) {
	u := testUniverse()
	store := intel.NewCensys()
	n := PopulateCensys(5, u, store)
	if n == 0 || store.Len() != n {
		t.Fatalf("censys populated %d, store %d", n, store.Len())
	}
	// Every tag must be a known device type.
	prefix := u.Config().Prefix
	checked := 0
	for i := uint64(0); i < prefix.Size() && checked < 20; i++ {
		ip := prefix.Nth(i)
		if tag, ok := store.IoTTag(ip); ok {
			checked++
			if tag == "" || tag == string(iot.TypeGenericServer) {
				t.Fatalf("bad tag %q", tag)
			}
		}
	}
	if checked == 0 {
		t.Fatal("no tags found in prefix walk")
	}
}

// specCrawl is the crawl as it was written before the universe had an
// exposure-only predicate: derive the full spec of every (address, protocol)
// pair for its ok, then drop wild honeypots. It is the reference the
// exposure-table crawl must equal.
func specCrawl(u *iot.Universe, protocols []iot.Protocol, keep func(netsim.IPv4, iot.Protocol) bool) map[iot.Protocol][]Record {
	records := make(map[iot.Protocol][]Record)
	prefix := u.Config().Prefix
	for i := uint64(0); i < prefix.Size(); i++ {
		ip := prefix.Nth(i)
		for _, p := range protocols {
			if _, ok := u.Spec(ip, p); !ok {
				continue
			}
			if _, isPot := u.WildHoneypot(ip); isPot {
				continue
			}
			if keep(ip, p) {
				records[p] = append(records[p], Record{IP: ip, Port: p.DefaultPort(), Protocol: p})
			}
		}
	}
	return records
}

// TestCrawlEqualsSpecReference runs the three crawls on expr.QuickConfig's
// universe with the seeds expr.World gives them and requires the Sonar and
// Shodan record sets to equal the Spec-based reference, and their totals and
// the Censys tag count to be the ones recorded from the commit before the
// crawl (and Spec's own exposure lookup) moved onto the exposure table.
func TestCrawlEqualsSpecReference(t *testing.T) {
	const seed = 2021
	u := iot.NewUniverse(iot.UniverseConfig{
		Seed: seed, Prefix: netsim.MustParsePrefix("100.0.0.0/16"), DensityBoost: 32,
	})
	for _, c := range []struct {
		got       *Dataset
		protocols []iot.Protocol
		keep      func(netsim.IPv4, iot.Protocol) bool
		total     int
	}{
		{ProjectSonar(seed+1, u), sonarProtocols, sonarKeep(seed+1, u), 5293},
		{Shodan(seed+2, u), iot.ScannedProtocols, shodanKeep(seed + 2), 856},
	} {
		want := specCrawl(u, c.protocols, c.keep)
		for _, p := range iot.ScannedProtocols {
			if !slices.Equal(c.got.Records(p), want[p]) {
				t.Errorf("%s/%s: %d records, the Spec-based crawl finds %d (or other ones)",
					c.got.Name, p, c.got.Count(p), len(want[p]))
			}
		}
		if c.got.Total() != c.total {
			t.Errorf("%s: %d records, recorded %d", c.got.Name, c.got.Total(), c.total)
		}
	}

	store := intel.NewCensys()
	tags := PopulateCensys(seed+3, u, store)
	if tags != 4038 || store.Len() != tags {
		t.Errorf("Censys: %d tags (%d stored), recorded 4038", tags, store.Len())
	}
}

// TestCrawlGoldenDigests pins every row of the three crawls, at the seeds
// expr.World gives them, on expr.QuickConfig's universe and on seed 2021's
// default /14: a sha256 over each protocol's Covers, Count and Records in
// Table 4 order, and over the Censys tags in address order. The constants
// were recorded from the commit before the crawls became filters over
// iot.Universe.ExposedIndex, when each walked the whole prefix itself.
func TestCrawlGoldenDigests(t *testing.T) {
	const seed = 2021
	for _, c := range []struct {
		prefix                string
		boost                 float64
		sonar, shodan, censys string
	}{
		{"100.0.0.0/16", 32,
			"6de863f5d8ccbd622ce03935dbc6358fa00f5943c50e11bbd16be92baf338134",
			"b3a0e0938a59e9a4c55d26979cc79d1f862afacd09053ef871fa8e6f9d48a60d",
			"d589e3ee39e6c75510f5f76241eeb7cb7009b2680e475eb144c2d2d3b86c847d"},
		{"100.0.0.0/14", 16,
			"ac07330e6f88c475e13a0931a0695dc967ef812d693822e61334e24084bf37c3",
			"f40c58278ca14e4bbf3504fc37ca2c3dbd6d77326efe6f62a1302e169c603002",
			"839ec993b8c918178c52dcc5de614cf98f4795cb96848fbb2e1e778fd0390be5"},
	} {
		u := iot.NewUniverse(iot.UniverseConfig{
			Seed: seed, Prefix: netsim.MustParsePrefix(c.prefix), DensityBoost: c.boost,
		})
		for _, d := range []struct {
			got  *Dataset
			want string
		}{{ProjectSonar(seed+1, u), c.sonar}, {Shodan(seed+2, u), c.shodan}} {
			h := sha256.New()
			for _, p := range iot.ScannedProtocols {
				fmt.Fprintf(h, "%s %v %d\n", p, d.got.Covers(p), d.got.Count(p))
				for _, r := range d.got.Records(p) {
					fmt.Fprintf(h, "%d %d %s\n", uint32(r.IP), r.Port, r.Protocol)
				}
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != d.want {
				t.Errorf("%s %s: digest %s, recorded %s", c.prefix, d.got.Name, got, d.want)
			}
		}

		store := intel.NewCensys()
		PopulateCensys(seed+3, u, store)
		h := sha256.New()
		prefix := u.Config().Prefix
		for i := uint64(0); i < prefix.Size(); i++ {
			if tag, ok := store.IoTTag(prefix.Nth(i)); ok {
				fmt.Fprintf(h, "%d %s\n", uint32(prefix.Nth(i)), tag)
			}
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != c.censys {
			t.Errorf("%s Censys: digest %s, recorded %s", c.prefix, got, c.censys)
		}
	}
}
