package iot

import (
	"context"
	"math"
	"strings"
	"testing"
	"time"

	"openhire/internal/netsim"
	"openhire/internal/protocols/coap"
	"openhire/internal/protocols/mqtt"
	"openhire/internal/protocols/telnet"
	"openhire/internal/protocols/upnp"
)

func testUniverse(boost float64) *Universe {
	return NewUniverse(UniverseConfig{
		Seed:         42,
		Prefix:       netsim.MustParsePrefix("100.0.0.0/16"),
		DensityBoost: boost,
	})
}

func TestSpecDeterministic(t *testing.T) {
	u := testUniverse(100)
	ip := netsim.MustParseIPv4("100.0.7.9")
	s1, ok1 := u.Spec(ip, ProtoTelnet)
	s2, ok2 := u.Spec(ip, ProtoTelnet)
	if ok1 != ok2 {
		t.Fatal("existence not deterministic")
	}
	if ok1 && (s1.Model.Name != s2.Model.Name || s1.Misconfig != s2.Misconfig ||
		s1.Password != s2.Password) {
		t.Fatalf("spec not deterministic: %+v vs %+v", s1, s2)
	}
}

func TestSpecOutsidePrefix(t *testing.T) {
	u := testUniverse(100)
	if _, ok := u.Spec(netsim.MustParseIPv4("200.0.0.1"), ProtoTelnet); ok {
		t.Fatal("spec exists outside prefix")
	}
}

func TestExposureDensityMatchesCalibration(t *testing.T) {
	// With boost 100 on a /16, expected Telnet hosts ≈ 7.09M/2^32 × 65536
	// × 100 ≈ 10828. Count the actual population and compare within 4 sigma.
	u := testUniverse(100)
	for _, p := range []Protocol{ProtoTelnet, ProtoMQTT, ProtoUPnP} {
		count := 0
		prefix := u.Config().Prefix
		for i := uint64(0); i < prefix.Size(); i++ {
			if _, ok := u.Spec(prefix.Nth(i), p); ok {
				count++
			}
		}
		want := u.ExpectedExposed(p)
		sigma := math.Sqrt(want)
		if math.Abs(float64(count)-want) > 4*sigma {
			t.Errorf("%s: count %d, expected %.1f ± %.1f", p, count, want, sigma)
		}
	}
}

func TestMisconfigSharesMatchTable5(t *testing.T) {
	u := NewUniverse(UniverseConfig{
		Seed: 7, Prefix: netsim.MustParsePrefix("100.0.0.0/14"), DensityBoost: 300,
	})
	prefix := u.Config().Prefix
	var reflectors, exposed int
	for i := uint64(0); i < prefix.Size(); i += 4 { // sample every 4th address
		if spec, ok := u.Spec(prefix.Nth(i), ProtoCoAP); ok {
			exposed++
			if spec.Misconfig == CoAPReflector {
				reflectors++
			}
		}
	}
	if exposed < 100 {
		t.Fatalf("only %d exposed CoAP hosts sampled", exposed)
	}
	share := float64(reflectors) / float64(exposed)
	if math.Abs(share-0.878) > 0.08 {
		t.Fatalf("CoAP reflector share %.3f, want ~0.878", share)
	}
}

func TestScaleFactor(t *testing.T) {
	u := NewUniverse(UniverseConfig{Seed: 1, Prefix: netsim.MustParsePrefix("0.0.0.0/10"), DensityBoost: 1})
	if got := u.ScaleFactor(); math.Abs(got-1024) > 0.001 {
		t.Fatalf("ScaleFactor = %f, want 1024", got)
	}
	u2 := NewUniverse(UniverseConfig{Seed: 1, Prefix: netsim.MustParsePrefix("0.0.0.0/16"), DensityBoost: 64})
	if got := u2.ScaleFactor(); math.Abs(got-1024) > 0.001 {
		t.Fatalf("boosted ScaleFactor = %f, want 1024", got)
	}
}

func TestWeakCredentialsFromDictionary(t *testing.T) {
	u := testUniverse(2000)
	prefix := u.Config().Prefix
	weak, strong := 0, 0
	inDict := func(user, pass string) bool {
		for _, c := range DefaultCredentials {
			if c.User == user && c.Pass == pass {
				return true
			}
		}
		return false
	}
	for i := uint64(0); i < prefix.Size() && weak+strong < 400; i++ {
		spec, ok := u.Spec(prefix.Nth(i), ProtoTelnet)
		if !ok {
			continue
		}
		if spec.WeakCredentials {
			weak++
			if !inDict(spec.Username, spec.Password) {
				t.Fatalf("weak credential %q/%q not in dictionary", spec.Username, spec.Password)
			}
		} else {
			strong++
			if len(spec.Password) < 10 {
				t.Fatalf("strong password %q too short", spec.Password)
			}
		}
	}
	if weak == 0 || strong == 0 {
		t.Fatalf("degenerate split weak=%d strong=%d", weak, strong)
	}
	share := float64(weak) / float64(weak+strong)
	if math.Abs(share-0.15) > 0.08 {
		t.Fatalf("weak share %.3f, want ~0.15", share)
	}
}

func TestTelnetPortMostlyDefault(t *testing.T) {
	u := testUniverse(1)
	alt := 0
	const n = 5000
	for i := 0; i < n; i++ {
		if u.TelnetPort(netsim.IPv4(i)) == 2323 {
			alt++
		}
	}
	share := float64(alt) / n
	if share < 0.03 || share > 0.12 {
		t.Fatalf("2323 share %.3f", share)
	}
}

// findSpec scans the universe for the first spec matching the predicate.
func findSpec(t *testing.T, u *Universe, p Protocol, pred func(DeviceSpec) bool) DeviceSpec {
	t.Helper()
	prefix := u.Config().Prefix
	for i := uint64(0); i < prefix.Size(); i++ {
		if spec, ok := u.Spec(prefix.Nth(i), p); ok && pred(spec) {
			return spec
		}
	}
	t.Fatalf("no %s spec matching predicate in universe", p)
	return DeviceSpec{}
}

func TestDeviceHostServesTelnetBanner(t *testing.T) {
	u := testUniverse(500)
	spec := findSpec(t, u, ProtoTelnet, func(s DeviceSpec) bool {
		return s.Misconfig == MisconfigNone && s.Model.TelnetBanner != ""
	})
	host := u.Host(spec.IP)
	if host == nil {
		t.Fatal("no host at spec address")
	}
	handler := host.StreamService(u.TelnetPort(spec.IP))
	if handler == nil {
		t.Fatal("telnet port closed")
	}
	client := netsim.Converse(handler.NewStepper(), 1, netsim.Endpoint{IP: spec.IP, Port: 23}, time.Now())
	defer client.Close()
	b, err := telnet.Grab(context.Background(), client)
	if err != nil {
		t.Fatal(err)
	}
	// The banner must contain the catalog identifier for device tagging.
	ident := strings.ReplaceAll(spec.Model.Identifier, "\\r\\n", "\r\n")
	if !strings.Contains(b.Text, strings.Split(ident, "\r\n")[0]) {
		t.Fatalf("banner %q missing identifier %q", b.Text, spec.Model.Identifier)
	}
}

func TestDeviceHostMQTTAnonymous(t *testing.T) {
	u := testUniverse(500)
	spec := findSpec(t, u, ProtoMQTT, func(s DeviceSpec) bool {
		return s.Misconfig == MQTTNoAuth
	})
	host := u.Host(spec.IP)
	handler := host.StreamService(1883)
	if handler == nil {
		t.Fatal("mqtt port closed")
	}
	client := netsim.Converse(handler.NewStepper(), 1, netsim.Endpoint{IP: spec.IP, Port: 1883}, time.Now())
	c := mqtt.NewClient(client)
	code, err := c.Connect("probe", "", "")
	if err != nil || code != mqtt.ConnAccepted {
		t.Fatalf("Connect = %v, %v", code, err)
	}
	c.Disconnect()
}

func TestDeviceHostCoAPReflector(t *testing.T) {
	u := testUniverse(500)
	spec := findSpec(t, u, ProtoCoAP, func(s DeviceSpec) bool {
		return s.Misconfig == CoAPReflector
	})
	host := u.Host(spec.IP)
	handler := host.DatagramService(5683)
	if handler == nil {
		t.Fatal("coap port closed")
	}
	c := coap.NewClient(1)
	resp := handler.HandleDatagram(netsim.Endpoint{IP: 1, Port: 1}, c.DiscoveryProbe())
	body, disclosed, err := coap.ParseDiscovery(resp)
	if err != nil || !disclosed {
		t.Fatalf("discovery: %v %v", disclosed, err)
	}
	if !strings.Contains(body, "<") {
		t.Fatalf("body %q", body)
	}
}

func TestDeviceHostUPnPConfiguredSilent(t *testing.T) {
	u := testUniverse(500)
	spec := findSpec(t, u, ProtoUPnP, func(s DeviceSpec) bool {
		return s.Misconfig == MisconfigNone
	})
	host := u.Host(spec.IP)
	handler := host.DatagramService(1900)
	if handler == nil {
		t.Fatal("upnp port closed")
	}
	if resp := handler.HandleDatagram(netsim.Endpoint{IP: 1, Port: 1}, upnp.BuildMSearch("ssdp:all")); resp != nil {
		t.Fatal("configured device answered WAN discovery")
	}
}

func TestWildHoneypotShadowsDevices(t *testing.T) {
	u := NewUniverse(UniverseConfig{
		Seed: 11, Prefix: netsim.MustParsePrefix("100.0.0.0/12"), DensityBoost: 2000,
	})
	prefix := u.Config().Prefix
	found := 0
	famCounts := make(map[string]int)
	for i := uint64(0); i < prefix.Size() && found < 50; i += 7 {
		ip := prefix.Nth(i)
		if fam, ok := u.WildHoneypot(ip); ok {
			found++
			famCounts[fam.Name]++
			host := u.Host(ip)
			handler := host.StreamService(23)
			if handler == nil {
				t.Fatal("honeypot has no telnet service")
			}
		}
	}
	if found < 10 {
		t.Fatalf("only %d wild honeypots found", found)
	}
	// Anglerfish and Cowrie dominate Table 6; together they should be the
	// majority of any decent sample.
	if famCounts["Anglerfish"]+famCounts["Cowrie"] < found/2 {
		t.Fatalf("family mix off: %v", famCounts)
	}
}

func TestHoneypotFamiliesMatchTable6(t *testing.T) {
	total := 0
	for _, f := range HoneypotFamilies {
		total += f.PaperCount
		if len(f.Banner) == 0 {
			t.Errorf("%s has empty banner", f.Name)
		}
	}
	if total != PaperHoneypotTotal {
		t.Fatalf("family counts sum %d, want %d", total, PaperHoneypotTotal)
	}
}

func TestPaperTablesConsistent(t *testing.T) {
	mis := PaperMisconfiguredCounts()
	var total int
	for _, n := range mis {
		total += n
	}
	if total != 1832893 {
		t.Fatalf("Table 5 total %d, want 1,832,893", total)
	}
	exp := PaperExposedCounts()
	sum := 0
	for _, n := range exp {
		sum += n
	}
	if sum != 14397929 {
		t.Fatalf("Table 4 total %d, want 14,397,929", sum)
	}
}

func TestProtocolHelpers(t *testing.T) {
	if ProtoTelnet.DefaultPort() != 23 || ProtoCoAP.DefaultPort() != 5683 {
		t.Fatal("ports wrong")
	}
	if ProtoCoAP.Transport() != netsim.UDP || ProtoMQTT.Transport() != netsim.TCP {
		t.Fatal("transports wrong")
	}
	if len(ScannedProtocols) != 6 {
		t.Fatal("scanned protocol count")
	}
}

func TestModelsForAndFindModel(t *testing.T) {
	telnetModels := ModelsFor(ProtoTelnet)
	if len(telnetModels) < 10 {
		t.Fatalf("only %d telnet models", len(telnetModels))
	}
	m, ok := FindModel("HiKVision Camera")
	if !ok || m.Type != TypeCamera {
		t.Fatalf("FindModel: %+v, %v", m, ok)
	}
	if _, ok := FindModel("nonexistent"); ok {
		t.Fatal("phantom model")
	}
}

func TestMisconfigStringAndProtocol(t *testing.T) {
	if TelnetNoAuthRoot.String() != "No auth, root access" {
		t.Fatal(TelnetNoAuthRoot.String())
	}
	if CoAPReflector.Protocol() != ProtoCoAP || UPnPReflector.Protocol() != ProtoUPnP {
		t.Fatal("protocol mapping wrong")
	}
	if MisconfigNone.Protocol() != "" {
		t.Fatal("none has a protocol")
	}
}

func BenchmarkSpecDerivation(b *testing.B) {
	u := testUniverse(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, _ = u.Spec(netsim.IPv4(uint32(i)), ProtoTelnet)
	}
}

func BenchmarkHostLookup(b *testing.B) {
	u := testUniverse(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = u.Host(netsim.MustParseIPv4("100.0.0.0") + netsim.IPv4(uint32(i)%65536))
	}
}
