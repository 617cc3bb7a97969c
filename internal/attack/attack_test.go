package attack

import (
	"context"
	"math"
	"testing"
	"time"

	"openhire/internal/attack/malware"
	"openhire/internal/geo"
	"openhire/internal/honeypot"
	"openhire/internal/intel"
	"openhire/internal/iot"
	"openhire/internal/netsim"
	"openhire/internal/telescope"
)

func TestDayWeightsShape(t *testing.T) {
	w := DayWeights()
	if len(w) != ExperimentDays {
		t.Fatalf("len %d", len(w))
	}
	var total float64
	for _, v := range w {
		total += v
	}
	if math.Abs(total-1) > 1e-9 {
		t.Fatalf("weights sum %f", total)
	}
	// Post-listing days are strictly heavier than pre-listing days.
	if w[10] <= w[3] {
		t.Fatalf("day 10 (%f) not above pre-listing day 3 (%f)", w[10], w[3])
	}
	if w[20] <= w[10] {
		t.Fatalf("day 20 (%f) not above day 10 (%f)", w[20], w[10])
	}
	// DoS spike days stand out against their neighbours.
	if w[23] <= w[22] || w[25] <= w[24] {
		t.Fatalf("spikes missing: w[22..26]=%v", w[22:27])
	}
}

func TestPaperTargetsTotal(t *testing.T) {
	// The paper's Table 7 rows sum to 200,239 while its stated total is
	// 200,209 (a 30-event inconsistency in the original). We reproduce the
	// rows verbatim, so assert the row sum and its distance to the total.
	total := TargetsTotal()
	if total != 200239 {
		t.Fatalf("targets sum %d, want 200,239 (Table 7 rows)", total)
	}
	if diff := total - PaperTotalEvents; diff != 30 {
		t.Fatalf("stated-total delta %d, want 30", diff)
	}
}

func TestPaperSourcePoolsTotal(t *testing.T) {
	scanning := 0
	for _, p := range PaperSourcePools {
		scanning += p.Scanning
	}
	if scanning != 10696 {
		t.Fatalf("scanning pool sum %d, want 10,696", scanning)
	}
}

func TestSourcesPoolsDisjointAndClassed(t *testing.T) {
	s := NewSources(1, nil, geo.NewRDNS(1), intel.NewGreyNoise(1, 0.81))
	scan := s.BuildScanningPool(200)
	mal := s.BuildMaliciousPool(200, nil)
	unk := s.BuildUnknownPool(200)
	seen := make(map[netsim.IPv4]bool)
	for _, pool := range [][]netsim.IPv4{scan, mal, unk} {
		for _, ip := range pool {
			if seen[ip] {
				t.Fatalf("address %v in two pools", ip)
			}
			seen[ip] = true
		}
	}
	if c, _ := s.Class(scan[0]); c != ClassScanningService {
		t.Fatal("scanning class wrong")
	}
	if c, _ := s.Class(mal[0]); c != ClassMalicious {
		t.Fatal("malicious class wrong")
	}
	if svc := s.ScanningServiceIPs()[scan[0]]; svc == "" {
		t.Fatal("service attribution missing")
	}
}

func TestDeriveInfectedCalibration(t *testing.T) {
	// A boosted /14 universe has enough misconfigured devices for the
	// infected share to be measurable.
	u := iot.NewUniverse(iot.UniverseConfig{
		Seed: 3, Prefix: netsim.MustParsePrefix("90.0.0.0/14"), DensityBoost: 200,
	})
	s := NewSources(2, u, nil, nil)
	infected := s.DeriveInfected()
	if len(infected) == 0 {
		t.Fatal("no infected devices derived")
	}
	var hpOnly, telOnly, both int
	for _, ip := range infected {
		tg, ok := s.InfectedTargetsFor(ip)
		if !ok {
			t.Fatal("missing target mix")
		}
		switch {
		case tg.Honeypots && tg.Telescope:
			both++
		case tg.Honeypots:
			hpOnly++
		case tg.Telescope:
			telOnly++
		}
	}
	if both <= hpOnly || both <= telOnly {
		t.Fatalf("split hp=%d tel=%d both=%d: 'both' must dominate (Section 5.3)",
			hpOnly, telOnly, both)
	}
	// Derivation is cached and deterministic.
	again := s.DeriveInfected()
	if len(again) != len(infected) {
		t.Fatal("second derivation differs")
	}
}

func TestScanningServiceSharesOrdered(t *testing.T) {
	for i := 1; i < len(KnownScanningServices); i++ {
		if KnownScanningServices[i].Share > KnownScanningServices[i-1].Share {
			t.Fatalf("service shares not descending at %d", i)
		}
	}
}

// buildWorld assembles network + honeypots + small universe for campaign
// tests.
func buildWorld(t testing.TB) (*netsim.Network, []*honeypot.Honeypot, *honeypot.Log, *iot.Universe, *netsim.SimClock) {
	clk := netsim.NewSimClock(netsim.ExperimentStart)
	n := netsim.NewNetwork(clk)
	prefix := netsim.MustParsePrefix("90.0.0.0/16")
	u := iot.NewUniverse(iot.UniverseConfig{Seed: 5, Prefix: prefix, DensityBoost: 100})
	n.AddProvider(prefix, u)
	pots, log := honeypot.DeployAll(n, netsim.MustParseIPv4("130.226.56.10"))
	return n, pots, log, u, clk
}

func TestCampaignReplaySmall(t *testing.T) {
	n, pots, log, u, clk := buildWorld(t)
	gn := intel.NewGreyNoise(7, 0.81)
	vt := intel.NewVirusTotal()
	rdns := geo.NewRDNS(7)
	sources := NewSources(7, u, rdns, gn)
	corpus := malware.NewCorpus(7, nil)
	c := NewCampaign(CampaignConfig{
		Seed: 7, Network: n, Honeypots: pots, Universe: u,
		Sources: sources, Corpus: corpus,
		Intensity: 0.01, Workers: 64, Clock: clk,
		GreyNoise: gn, VirusTotal: vt, RDNS: rdns,
	})
	stats := c.Run(context.Background(), nil)
	// Planned conversations are amplification-normalized; the honeypot log
	// is what must approach target volume (checked below via counts).
	if stats.EventsRun < 500 {
		t.Fatalf("only %d events ran", stats.EventsRun)
	}
	if stats.EventsRun != stats.EventsPlanned {
		t.Fatalf("planned %d, ran %d", stats.EventsPlanned, stats.EventsRun)
	}

	events := log.Events()
	if len(events) == 0 {
		t.Fatal("honeypots logged nothing")
	}

	// Per-honeypot/protocol counts must follow the Table 7 ordering:
	// HosTaGe Telnet is the largest bucket.
	counts := honeypot.CountByHoneypotProtocol(events)
	if counts["HosTaGe"][iot.ProtoTelnet] == 0 {
		t.Fatal("no HosTaGe telnet events")
	}
	if counts["U-Pot"][iot.ProtoUPnP] == 0 {
		t.Fatal("no U-Pot UPnP events")
	}
	if counts["HosTaGe"][iot.ProtoTelnet] < counts["HosTaGe"][iot.ProtoSMB] {
		t.Fatalf("telnet (%d) below smb (%d): Table 7 shape broken",
			counts["HosTaGe"][iot.ProtoTelnet], counts["HosTaGe"][iot.ProtoSMB])
	}

	// UPnP events must be DoS-dominated (Figure 7 / Section 5.1.3).
	shares := honeypot.TypeSharesByProtocol(events)
	upnp := shares[string(iot.ProtoUPnP)]
	if upnp[honeypot.AttackDoS] < 0.5 {
		t.Fatalf("UPnP DoS share %.2f, want > 0.5", upnp[honeypot.AttackDoS])
	}

	// Credentials captured on Telnet must be dictionary pairs with
	// admin/admin leading (Table 12).
	creds := honeypot.TopCredentials(events, iot.ProtoTelnet, 3)
	if len(creds) == 0 {
		t.Fatal("no telnet credentials captured")
	}
	if creds[0].Username != "admin" || creds[0].Password != "admin" {
		t.Fatalf("top credential %s/%s, want admin/admin", creds[0].Username, creds[0].Password)
	}

	// Daily series must rise after listings (Figure 8 trend).
	daily := honeypot.DailyCounts(events, netsim.ExperimentStart, ExperimentDays)
	early := daily[0] + daily[1] + daily[2]
	late := daily[19] + daily[20] + daily[21]
	if late <= early {
		t.Fatalf("no post-listing surge: early=%d late=%d", early, late)
	}

	// Malware must have been dropped and identifiable via the corpus.
	var malwareSeen bool
	for _, ev := range events {
		if ev.Type == honeypot.AttackMalware && len(ev.Payload) > 0 {
			malwareSeen = true
			break
		}
	}
	if !malwareSeen {
		t.Fatal("no malware payloads captured")
	}

	// Multistage attacks must be detectable.
	scanningIPs := map[netsim.IPv4]bool{}
	for ip := range sources.ScanningServiceIPs() {
		scanningIPs[ip] = true
	}
	ms := honeypot.DetectMultistage(honeypot.FilterBySources(events, scanningIPs))
	if len(ms) == 0 {
		t.Fatal("no multistage attacks detected")
	}

	// Intel registration populates VT with malicious flags.
	c.RegisterIntel(events)
	flagged := 0
	for _, ev := range events {
		if vt.IsMalicious(ev.Src) {
			flagged++
		}
	}
	if flagged == 0 {
		t.Fatal("no event sources flagged by VirusTotal")
	}
}

func TestDarknetGeneratorTable8Shape(t *testing.T) {
	prefix := netsim.MustParsePrefix("44.0.0.0/8")
	tel := telescope.New(prefix, geo.NewDB(1, nil))
	g := NewDarknetGenerator(DarknetConfig{
		Seed: 9, Telescope: tel, GeoDB: geo.NewDB(1, nil),
		Scale: 1.0 / 500000, Days: 1,
	})
	flows := g.Run()
	if flows == 0 {
		t.Fatal("no flows generated")
	}
	stats := telescope.AggregateByProtocol(tel.Flows())
	if len(stats) != 6 {
		t.Fatalf("protocols %d", len(stats))
	}
	if stats[0].Protocol != iot.ProtoTelnet {
		t.Fatalf("top protocol %s, want telnet (Table 8)", stats[0].Protocol)
	}
	// Telnet volume dominates by more than an order of magnitude.
	if stats[0].Packets < 10*stats[1].Packets {
		t.Fatalf("telnet %d vs next %d: dominance too weak", stats[0].Packets, stats[1].Packets)
	}
}

func TestDarknetSharesInfectedSources(t *testing.T) {
	u := iot.NewUniverse(iot.UniverseConfig{
		Seed: 3, Prefix: netsim.MustParsePrefix("90.0.0.0/14"), DensityBoost: 200,
	})
	s := NewSources(2, u, nil, nil)
	infected := s.DeriveInfected()
	prefix := netsim.MustParsePrefix("44.0.0.0/8")
	tel := telescope.New(prefix, nil)
	g := NewDarknetGenerator(DarknetConfig{
		Seed: 4, Telescope: tel, Sources: s, Scale: 1.0 / 200000, Days: 1,
	})
	g.Run()
	srcSet := make(map[netsim.IPv4]bool)
	for _, ip := range telescope.UniqueSources(tel.Flows()) {
		srcSet[ip] = true
	}
	overlap := 0
	for _, ip := range infected {
		if srcSet[ip] {
			overlap++
		}
	}
	if overlap == 0 {
		t.Fatal("no infected devices appear as telescope sources")
	}
}

func TestExecutorUnknownProtocol(t *testing.T) {
	n := netsim.NewNetwork(netsim.NewSimClock(netsim.ExperimentStart))
	e := NewExecutor(n, malware.NewCorpus(1, nil))
	if err := e.Execute(context.Background(), honeypot.AttackScan, iot.Protocol("bogus"),
		1, 2, nil); err == nil {
		t.Fatal("bogus protocol accepted")
	}
}

func TestCampaignDeterministicPlanning(t *testing.T) {
	// Two campaigns with the same seed must plan the same number of events.
	run := func() int {
		n, pots, _, u, clk := buildWorld(t)
		sources := NewSources(11, u, nil, nil)
		c := NewCampaign(CampaignConfig{
			Seed: 11, Network: n, Honeypots: pots, Universe: u,
			Sources: sources, Corpus: malware.NewCorpus(1, nil),
			Intensity: 0.002, Workers: 32, Clock: clk,
		})
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		return c.Run(ctx, nil).EventsPlanned
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("planned %d vs %d", a, b)
	}
}
