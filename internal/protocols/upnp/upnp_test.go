package upnp

import (
	"strings"
	"testing"
	"testing/quick"

	"openhire/internal/netsim"
)

var avtech = Device{
	Server:       "Linux/2.x UPnP/1.0 Avtech/1.0",
	UUID:         "5a34308c-1a2c-4546-ac5d-7663dd01dca1",
	FriendlyName: "AVTECH AVN801 Network Camera",
	ModelName:    "AVN801",
	Manufacturer: "AVTECH",
	DeviceType:   "urn:schemas-upnp-org:device:Basic:1",
	Location:     "http://192.168.0.1:16537/rootDesc.xml",
}

func TestBuildAndParseMSearch(t *testing.T) {
	raw := BuildMSearch("upnp:rootdevice")
	m, err := ParseMSearch(raw)
	if err != nil {
		t.Fatal(err)
	}
	if m.ST != "upnp:rootdevice" || m.Man != "ssdp:discover" || m.MX != 1 {
		t.Fatalf("parsed %+v", m)
	}
}

func TestParseMSearchDefaultsToAll(t *testing.T) {
	m, err := ParseMSearch(BuildMSearch(""))
	if err != nil {
		t.Fatal(err)
	}
	if m.ST != "ssdp:all" {
		t.Fatalf("ST = %q", m.ST)
	}
}

func TestParseMSearchRejectsGarbage(t *testing.T) {
	for _, raw := range []string{
		"",
		"GET / HTTP/1.1\r\n\r\n",
		"M-SEARCH * HTTP/1.1\r\nST: ssdp:all\r\n\r\n",           // no MAN
		"M-SEARCH * HTTP/1.1\r\nMAN: \"ssdp:discover\"\r\n\r\n", // no ST
		"NOTIFY * HTTP/1.1\r\nMAN: \"ssdp:discover\"\r\nST: a\r\n\r\n",
	} {
		if _, err := ParseMSearch([]byte(raw)); err == nil {
			t.Errorf("parsed %q", raw)
		}
	}
}

func TestParseMSearchFuzzNoPanic(t *testing.T) {
	if err := quick.Check(func(raw []byte) bool {
		_, _ = ParseMSearch(raw)
		return true
	}, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestSSDPResponseShape(t *testing.T) {
	raw := avtech.SSDPResponse("upnp:rootdevice")
	h, ok := ResponseHeaders(raw)
	if !ok {
		t.Fatal("response not parsed")
	}
	if h["SERVER"] != avtech.Server {
		t.Fatalf("SERVER = %q", h["SERVER"])
	}
	if !strings.Contains(h["USN"], "uuid:"+avtech.UUID) {
		t.Fatalf("USN = %q", h["USN"])
	}
	if !strings.Contains(h["USN"], "::upnp:rootdevice") {
		t.Fatalf("USN missing ST suffix: %q", h["USN"])
	}
	if h["LOCATION"] != avtech.Location {
		t.Fatalf("LOCATION = %q", h["LOCATION"])
	}
}

var probeFrom = netsim.Endpoint{IP: netsim.MustParseIPv4("192.0.2.60"), Port: 41000}

func TestResponderAnswersInternet(t *testing.T) {
	var events []RequestEvent
	r := NewResponder(ResponderConfig{
		Device: avtech, AnswerInternet: true,
		OnEvent: func(ev RequestEvent) { events = append(events, ev) },
	})
	resp := r.HandleDatagram(probeFrom, BuildMSearch("ssdp:all"))
	if resp == nil {
		t.Fatal("no response")
	}
	if _, ok := ResponseHeaders(resp); !ok {
		t.Fatal("unparseable response")
	}
	if len(events) != 1 || !events[0].Valid || events[0].ResponseBytes != len(resp) {
		t.Fatalf("events %+v", events)
	}
}

func TestResponderSilentWhenConfigured(t *testing.T) {
	var events []RequestEvent
	r := NewResponder(ResponderConfig{
		Device: avtech, AnswerInternet: false,
		OnEvent: func(ev RequestEvent) { events = append(events, ev) },
	})
	if resp := r.HandleDatagram(probeFrom, BuildMSearch("ssdp:all")); resp != nil {
		t.Fatal("configured device answered WAN probe")
	}
	// The probe is still observed (for honeypot logging) even if unanswered.
	if len(events) != 1 || !events[0].Valid || events[0].ResponseBytes != 0 {
		t.Fatalf("events %+v", events)
	}
}

func TestResponderDropsGarbage(t *testing.T) {
	r := NewResponder(ResponderConfig{Device: avtech, AnswerInternet: true})
	if resp := r.HandleDatagram(probeFrom, []byte("NOT SSDP")); resp != nil {
		t.Fatal("garbage answered")
	}
}

func BenchmarkSSDPRoundTrip(b *testing.B) {
	r := NewResponder(ResponderConfig{Device: avtech, AnswerInternet: true})
	probe := BuildMSearch("ssdp:all")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if r.HandleDatagram(probeFrom, probe) == nil {
			b.Fatal("no response")
		}
	}
}
