package tr069

import (
	"testing"
	"time"

	"openhire/internal/netsim"
)

// tr069 needs no fuzz target of its own: a session is the inner HTTP
// server's stepper (Server.NewStepper), whose request framing honeypot's
// FuzzStepperChunking splits at fuzz-chosen points, and Probe reads the answer
// with http's response decoder, which http's FuzzDecodeResponse holds to the
// reference parser.

func startServer(t *testing.T, cfg Config) *netsim.ServiceConn {
	t.Helper()
	client := netsim.Converse(NewServer(cfg).NewStepper(), netsim.MustParseIPv4("192.0.2.99"),
		netsim.Endpoint{IP: netsim.MustParseIPv4("10.0.0.11"), Port: Port}, time.Now())
	t.Cleanup(func() { client.Close() })
	return client
}

func TestProbeUnauthenticated(t *testing.T) {
	client := startServer(t, Config{RequireAuth: false, ServerBanner: "RomPager/4.07 UPnP/1.0"})
	pr, err := Probe(client)
	if err != nil {
		t.Fatal(err)
	}
	if !pr.Unauthenticated || pr.Status != 200 {
		t.Fatalf("result %+v", pr)
	}
	if pr.Server != "RomPager/4.07 UPnP/1.0" {
		t.Fatalf("server %q", pr.Server)
	}
}

func TestProbeAuthenticated(t *testing.T) {
	client := startServer(t, Config{RequireAuth: true})
	pr, err := Probe(client)
	if err != nil {
		t.Fatal(err)
	}
	if pr.Unauthenticated || pr.Status != 401 {
		t.Fatalf("result %+v", pr)
	}
}

func TestEventsSurfaced(t *testing.T) {
	var events []Event
	client := startServer(t, Config{
		OnEvent: func(ev Event) { events = append(events, ev) },
	})
	if _, err := Probe(client); err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("no events")
	}
	if events[0].Path != "/" {
		t.Fatalf("event %+v", events[0])
	}
}

func TestDefaultBanner(t *testing.T) {
	client := startServer(t, Config{})
	pr, err := Probe(client)
	if err != nil {
		t.Fatal(err)
	}
	if pr.Server != ServerBanners[0] {
		t.Fatalf("default banner %q", pr.Server)
	}
}
