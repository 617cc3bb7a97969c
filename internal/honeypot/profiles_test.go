package honeypot

import (
	"context"
	"strings"
	"testing"
	"time"

	"openhire/internal/iot"
	"openhire/internal/netsim"
	"openhire/internal/protocols/amqp"
	httpx "openhire/internal/protocols/http"
	"openhire/internal/protocols/modbus"
	"openhire/internal/protocols/s7"
	"openhire/internal/protocols/smb"
	"openhire/internal/protocols/xmpp"
)

func TestThingPotXMPPPoisoning(t *testing.T) {
	n, pots, log := deploy(t)
	thingpot := pots[3]
	conn := dialOK(t, n, netsim.MustParseIPv4("198.51.100.20"), netsim.Endpoint{IP: thingpot.IP, Port: 5222})
	defer conn.Close()
	if _, _, err := xmpp.ProbeBanner(conn, "philips-hue.local"); err != nil {
		t.Fatal(err)
	}
	if ok, _ := xmpp.Authenticate(conn, "ANONYMOUS", "", ""); !ok {
		t.Fatal("anonymous bind rejected")
	}
	if _, err := xmpp.SendStanza(conn, `<iq type='set'><lights state='off'/></iq>`); err != nil {
		t.Fatal(err)
	}
	loggedEvents(t, log, func(evs []Event) bool {
		for _, ev := range evs {
			if ev.Honeypot == "ThingPot" && ev.Type == AttackPoisoning &&
				strings.Contains(ev.Detail, "lights") {
				return true
			}
		}
		return false
	})
}

func TestConpotModbusPoisoning(t *testing.T) {
	n, pots, log := deploy(t)
	conpot := pots[2]
	conn := dialOK(t, n, netsim.MustParseIPv4("198.51.100.21"), netsim.Endpoint{IP: conpot.IP, Port: 502})
	defer conn.Close()
	if err := modbus.WriteSingle(conn, 3, 999); err != nil {
		t.Fatal(err)
	}
	loggedEvents(t, log, func(evs []Event) bool {
		for _, ev := range evs {
			if ev.Honeypot == "Conpot" && ev.Protocol == iot.ProtoModbus && ev.Type == AttackPoisoning {
				return true
			}
		}
		return false
	})
}

func TestConpotS7JobFloodDoS(t *testing.T) {
	n, pots, log := deploy(t)
	conpot := pots[2]
	conn := dialOK(t, n, netsim.MustParseIPv4("198.51.100.22"), netsim.Endpoint{IP: conpot.IP, Port: 102})
	defer conn.Close()
	if err := s7.Connect(conn); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 80; i++ {
		if _, err := conn.Write(s7.BuildJob(s7.FuncSetupComm)); err != nil {
			break
		}
	}
	loggedEvents(t, log, func(evs []Event) bool {
		for _, ev := range evs {
			if ev.Honeypot == "Conpot" && ev.Protocol == iot.ProtoS7 && ev.Type == AttackDoS {
				return true
			}
		}
		return false
	})
}

func TestHosTaGeAMQPPoisoning(t *testing.T) {
	n, pots, log := deploy(t)
	hostage := pots[0]
	conn := dialOK(t, n, netsim.MustParseIPv4("198.51.100.23"), netsim.Endpoint{IP: hostage.IP, Port: 5672})
	defer conn.Close()
	sess, ok, err := amqp.Connect(conn, "PLAIN", "", "")
	if err != nil || !ok {
		t.Fatalf("connect: %v %v", ok, err)
	}
	if err := sess.Publish("amq.topic", "sensors", []byte("poison")); err != nil {
		t.Fatal(err)
	}
	loggedEvents(t, log, func(evs []Event) bool {
		for _, ev := range evs {
			if ev.Honeypot == "HosTaGe" && ev.Protocol == iot.ProtoAMQP && ev.Type == AttackPoisoning {
				return true
			}
		}
		return false
	})
}

func TestHTTPMalwareUploadClassified(t *testing.T) {
	n, pots, log := deploy(t)
	dionaea := pots[5]
	conn := dialOK(t, n, netsim.MustParseIPv4("198.51.100.24"), netsim.Endpoint{IP: dionaea.IP, Port: 80})
	defer conn.Close()
	body := make([]byte, 8192)
	if _, err := httpx.Do(conn, "POST", "/upload.php", body); err != nil {
		t.Fatal(err)
	}
	loggedEvents(t, log, func(evs []Event) bool {
		for _, ev := range evs {
			if ev.Honeypot == "Dionaea" && ev.Protocol == iot.ProtoHTTP && ev.Type == AttackMalware {
				return true
			}
		}
		return false
	})
}

func TestSMBExploitClassified(t *testing.T) {
	n, pots, log := deploy(t)
	hostage := pots[0]
	conn := dialOK(t, n, netsim.MustParseIPv4("198.51.100.25"), netsim.Endpoint{IP: hostage.IP, Port: 445})
	// Send only the NT-Trans exploit frame (the trailing 4 bytes of
	// BuildExploit are an empty payload frame that would upgrade the event
	// to a payload drop).
	exploit := smb.BuildExploit(smb.KindEternalRomance, nil)
	if _, err := conn.Write(exploit[:len(exploit)-4]); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 256)
	_, _ = conn.Read(buf)
	conn.Close()
	loggedEvents(t, log, func(evs []Event) bool {
		for _, ev := range evs {
			if ev.Honeypot == "HosTaGe" && ev.Protocol == iot.ProtoSMB && ev.Type == AttackExploit {
				return true
			}
		}
		return false
	})
}

func TestFloodUpgrade(t *testing.T) {
	hp := New("X", "profile", 1, netsim.NewSimClock(netsim.ExperimentStart), &Log{})
	base := netsim.ExperimentStart
	for i := 0; i < floodThreshold; i++ {
		ev := Event{Time: base, Src: 9, Protocol: iot.ProtoUPnP, Type: AttackScan}
		hp.floodUpgrade(&ev)
		if ev.Type != AttackScan {
			t.Fatalf("event %d upgraded too early", i)
		}
	}
	ev := Event{Time: base, Src: 9, Protocol: iot.ProtoUPnP, Type: AttackScan}
	hp.floodUpgrade(&ev)
	if ev.Type != AttackDoS {
		t.Fatal("threshold crossing not upgraded")
	}
	// A different day resets the counter.
	ev2 := Event{Time: base.Add(24 * time.Hour), Src: 9, Protocol: iot.ProtoUPnP, Type: AttackScan}
	hp.floodUpgrade(&ev2)
	if ev2.Type != AttackScan {
		t.Fatal("new day inherited old counter")
	}
	// A different source is independent.
	ev3 := Event{Time: base, Src: 10, Protocol: iot.ProtoUPnP, Type: AttackScan}
	hp.floodUpgrade(&ev3)
	if ev3.Type != AttackScan {
		t.Fatal("distinct source inherited counter")
	}
}

func TestCowrieSSHAcceptsAndConpotTelnetBanner(t *testing.T) {
	n, pots, _ := deploy(t)
	conpot := pots[2]
	conn := dialOK(t, n, netsim.MustParseIPv4("198.51.100.26"), netsim.Endpoint{IP: conpot.IP, Port: 23})
	defer conn.Close()
	buf := make([]byte, 256)
	total := 0
	for total < 32 {
		n, err := conn.Read(buf[total:])
		total += n
		if err != nil {
			break
		}
	}
	if !strings.Contains(string(buf[:total]), "Connected to [00:13:EA") {
		t.Fatalf("Conpot banner %q", buf[:total])
	}
	_ = context.Background()
}
