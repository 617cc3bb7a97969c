package amqp

import (
	"testing"
	"testing/quick"
	"time"

	"openhire/internal/netsim"
)

func TestFrameRoundTrip(t *testing.T) {
	f := &Frame{Type: FrameMethod, Channel: 3, Payload: []byte("payload")}
	got, rest, err := ParseFrame(f.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != 0 {
		t.Fatalf("rest = %d bytes", len(rest))
	}
	if got.Type != FrameMethod || got.Channel != 3 || string(got.Payload) != "payload" {
		t.Fatalf("got %+v", got)
	}
}

func TestParseFrameErrors(t *testing.T) {
	// Truncated, missing end octet, oversized.
	if _, _, err := ParseFrame([]byte{1, 0, 0}); err == nil {
		t.Fatal("truncated frame parsed")
	}
	raw := (&Frame{Type: 1, Payload: []byte("x")}).Marshal()
	raw[len(raw)-1] = 0 // corrupt end octet
	if _, _, err := ParseFrame(raw); err == nil {
		t.Fatal("corrupt end octet parsed")
	}
	big := []byte{1, 0, 0, 0xff, 0xff, 0xff, 0xff}
	if _, _, err := ParseFrame(big); err != ErrFrameTooBig {
		t.Fatal("oversized frame not rejected")
	}
}

func TestStartFrameRoundTrip(t *testing.T) {
	props := ServerProperties{
		Product: "RabbitMQ", Version: "2.7.1", Platform: "Erlang/R14B04",
		Mechanisms: []string{"PLAIN", "AMQPLAIN"},
	}
	got, err := ParseStart(StartFrame(props))
	if err != nil {
		t.Fatal(err)
	}
	if got.Product != "RabbitMQ" || got.Version != "2.7.1" {
		t.Fatalf("got %+v", got)
	}
	if len(got.Mechanisms) != 2 || got.Mechanisms[0] != "PLAIN" {
		t.Fatalf("mechanisms %v", got.Mechanisms)
	}
	if len(got.Locales) != 1 || got.Locales[0] != "en_US" {
		t.Fatalf("locales %v", got.Locales)
	}
}

func TestStartFramePropertyRoundTrip(t *testing.T) {
	if err := quick.Check(func(product, version string) bool {
		if len(product) > 200 || len(version) > 200 {
			return true
		}
		got, err := ParseStart(StartFrame(ServerProperties{
			Product: product, Version: version, Mechanisms: []string{"PLAIN"},
		}))
		return err == nil && got.Product == product && got.Version == version
	}, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestParseStartRejectsOtherFrames(t *testing.T) {
	if _, err := ParseStart(&Frame{Type: FrameHeartbeat}); err == nil {
		t.Fatal("heartbeat parsed as start")
	}
	if _, err := ParseStart(&Frame{Type: FrameMethod, Payload: []byte{0, 10, 0, 11, 0, 9}}); err == nil {
		t.Fatal("start-ok parsed as start")
	}
}

func TestKnownVulnerableVersions(t *testing.T) {
	if !KnownVulnerableVersions["2.7.1"] || !KnownVulnerableVersions["2.8.4"] {
		t.Fatal("Table 2 versions missing")
	}
	if KnownVulnerableVersions["3.8.9"] {
		t.Fatal("modern version flagged")
	}
}

func startBroker(t *testing.T, cfg ServerConfig) *netsim.ServiceConn {
	t.Helper()
	client := netsim.Converse(NewServer(cfg).NewStepper(), netsim.MustParseIPv4("192.0.2.70"),
		netsim.Endpoint{IP: netsim.MustParseIPv4("10.0.0.3"), Port: 5672}, time.Now())
	t.Cleanup(func() { client.Close() })
	return client
}

func TestProbeReadsServerProperties(t *testing.T) {
	client := startBroker(t, ServerConfig{
		Properties: ServerProperties{
			Product: "RabbitMQ", Version: "2.8.4",
			Mechanisms: []string{"PLAIN", "ANONYMOUS"},
		},
	})
	props, err := Probe(client)
	if err != nil {
		t.Fatal(err)
	}
	if props.Version != "2.8.4" {
		t.Fatalf("version %q", props.Version)
	}
	if !KnownVulnerableVersions[props.Version] {
		t.Fatal("probe missed vulnerable version")
	}
}

func TestProbeBadGreetingAnswered(t *testing.T) {
	client := startBroker(t, ServerConfig{})
	if _, err := client.Write([]byte("GET / HT")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 8)
	n, _ := client.Read(buf)
	if !IsAMQP(buf[:n]) {
		t.Fatalf("bad greeting answer %q", buf[:n])
	}
}

func TestConnectAnonymousAccepted(t *testing.T) {
	var events []Event
	client := startBroker(t, ServerConfig{
		Properties: ServerProperties{Product: "RabbitMQ", Version: "3.8.9",
			Mechanisms: []string{"PLAIN", "ANONYMOUS"}},
		OnEvent: func(ev Event) { events = append(events, ev) },
	})
	sess, ok, err := Connect(client, "ANONYMOUS", "", "")
	if err != nil || !ok {
		t.Fatalf("Connect = %v, %v", ok, err)
	}
	if err := sess.Publish("amq.topic", "plant.valve", []byte("open")); err != nil {
		t.Fatal(err)
	}
	// Find the publish event.
	for _, ev := range events {
		if ev.Kind == EventPublish && string(ev.Body) == "open" && ev.Exchange == "amq.topic" {
			return
		}
	}
	t.Fatalf("publish not observed; events: %+v", events)
}

func TestConnectAuthRejected(t *testing.T) {
	client := startBroker(t, ServerConfig{
		RequireAuth: true,
		Credentials: map[string]string{"svc": "hunter2"},
	})
	_, ok, err := Connect(client, "PLAIN", "svc", "wrong")
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("wrong password admitted")
	}
}

func TestConnectAuthAccepted(t *testing.T) {
	client := startBroker(t, ServerConfig{
		RequireAuth: true,
		Credentials: map[string]string{"svc": "hunter2"},
	})
	_, ok, err := Connect(client, "PLAIN", "svc", "hunter2")
	if err != nil || !ok {
		t.Fatalf("Connect = %v, %v", ok, err)
	}
}

func TestFloodGuardClosesSession(t *testing.T) {
	client := startBroker(t, ServerConfig{MaxPublishes: 3})
	sess, ok, err := Connect(client, "PLAIN", "", "")
	if err != nil || !ok {
		t.Fatal(err)
	}
	failed := false
	for i := 0; i < 50; i++ {
		if sess.Publish("x", "y", []byte("flood")) != nil {
			failed = true
			break
		}
	}
	if !failed {
		t.Fatal("flood never failed: broker did not close the session")
	}
}

func BenchmarkStartFrameRoundTrip(b *testing.B) {
	props := ServerProperties{Product: "RabbitMQ", Version: "3.8.9",
		Mechanisms: []string{"PLAIN"}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ParseStart(StartFrame(props)); err != nil {
			b.Fatal(err)
		}
	}
}
