package s7

import (
	"strings"
	"testing"
	"time"

	"openhire/internal/netsim"
)

// startServer dials one session; events returns what the server has logged
// so far.
func startServer(t *testing.T, cfg Config) (*netsim.ServiceConn, func() []Event) {
	t.Helper()
	var events []Event
	prev := cfg.OnEvent
	cfg.OnEvent = func(ev Event) {
		if prev != nil {
			prev(ev)
		}
		events = append(events, ev)
	}
	client := netsim.Converse(NewServer(cfg).NewStepper(), netsim.MustParseIPv4("192.0.2.95"),
		netsim.Endpoint{IP: netsim.MustParseIPv4("10.0.0.10"), Port: 102}, time.Now())
	t.Cleanup(func() { client.Close() })
	return client, func() []Event { return events }
}

func TestConnectAndReadModule(t *testing.T) {
	client, events := startServer(t, Config{Module: "6ES7 315-2EH14-0AB0"})
	if err := Connect(client); err != nil {
		t.Fatal(err)
	}
	module, err := ReadModule(client)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(module, "6ES7") {
		t.Fatalf("module %q", module)
	}
	found := false
	for _, ev := range events() {
		if ev.PDUType == PDUJob && ev.Function == FuncSetupComm {
			found = true
		}
	}
	if !found {
		t.Fatalf("setup job not logged: %+v", events())
	}
}

func TestJobFloodWedgesDevice(t *testing.T) {
	client, events := startServer(t, Config{MaxJobs: 5})
	if err := Connect(client); err != nil {
		t.Fatal(err)
	}
	// Flood PDU-type-1 jobs: the ICSA-16-299-01 DoS.
	for i := 0; i < 20; i++ {
		if _, err := client.Write(BuildJob(FuncSetupComm)); err != nil {
			break
		}
	}
	for _, ev := range events() {
		if ev.JobFlood {
			return
		}
	}
	t.Fatalf("flood not detected: %d events", len(events()))
}

func TestNonS7TrafficIgnored(t *testing.T) {
	client, _ := startServer(t, Config{})
	if _, err := client.Write([]byte("GET / HTTP/1.1\r\n\r\n")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	if n, _ := client.Read(buf); n != 0 {
		t.Fatalf("non-S7 traffic got %d response bytes", n)
	}
}

func TestCOTPRequiredBeforeJobs(t *testing.T) {
	client, _ := startServer(t, Config{})
	// Send a job without the COTP connect: server must drop the session.
	if _, err := client.Write(BuildJob(FuncRead)); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	if n, _ := client.Read(buf); n != 0 {
		t.Fatalf("job before COTP got %d bytes", n)
	}
}
