package smb

import (
	"context"
	"strings"
	"testing"
	"time"

	"openhire/internal/netsim"
)

func startServer(t *testing.T, cfg Config) (*netsim.ServiceConn, <-chan Event) {
	t.Helper()
	events := make(chan Event, 1)
	prev := cfg.OnEvent
	cfg.OnEvent = func(ev Event) {
		if prev != nil {
			prev(ev)
		}
		events <- ev
	}
	client, server := netsim.NewServiceConnPair(
		netsim.Endpoint{IP: netsim.MustParseIPv4("192.0.2.93"), Port: 47000},
		netsim.Endpoint{IP: netsim.MustParseIPv4("10.0.0.8"), Port: 445},
		time.Now(),
	)
	srv := NewServer(cfg)
	go func() {
		defer server.Close()
		netsim.ServeStepper(context.Background(), server, srv.NewStepper())
	}()
	t.Cleanup(func() { client.Close() })
	return client, events
}

func TestProbeNegotiate(t *testing.T) {
	client, events := startServer(t, Config{Dialect: "NT LM 0.12"})
	dialect, err := Probe(client, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if dialect != "NT LM 0.12" {
		t.Fatalf("dialect %q", dialect)
	}
	client.Close()
	select {
	case ev := <-events:
		if ev.Kind != KindProbe || ev.Dialect != "NT LM 0.12" {
			t.Fatalf("event %+v", ev)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no event")
	}
}

func TestEternalBlueDetected(t *testing.T) {
	client, events := startServer(t, Config{})
	payload := []byte("MZ wannacry-sample")
	if _, err := client.Write(BuildExploit(KindEternalBlue, payload)); err != nil {
		t.Fatal(err)
	}
	// Consume the server's STATUS_NOT_IMPLEMENTED answer before closing so
	// the session ends via EOF after the payload frame is processed.
	buf := make([]byte, 256)
	_ = client.SetReadDeadline(time.Now().Add(time.Second))
	if _, err := client.Read(buf); err != nil {
		t.Fatal(err)
	}
	client.Close()
	select {
	case ev := <-events:
		if ev.Kind != KindPayloadDrop {
			t.Fatalf("kind %v", ev.Kind)
		}
		if string(ev.Payload) != string(payload) {
			t.Fatalf("payload %q", ev.Payload)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no event")
	}
}

func TestEternalRomanceDetected(t *testing.T) {
	client, events := startServer(t, Config{})
	if _, err := client.Write(BuildExploit(KindEternalRomance, nil)[:36]); err != nil {
		// Only the exploit frame, no payload: send just the first frame.
		t.Fatal(err)
	}
	// Send the full first frame properly.
	client.Close()
	select {
	case ev := <-events:
		if ev.Kind != KindEternalRomance && ev.Kind != KindProbe {
			t.Fatalf("kind %v", ev.Kind)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no event")
	}
}

func TestGarbageIgnored(t *testing.T) {
	client, events := startServer(t, Config{})
	// A NetBIOS frame that is not SMB.
	if _, err := client.Write(netbiosFrame([]byte("ABCD-not-smb"))); err != nil {
		t.Fatal(err)
	}
	client.Close()
	select {
	case ev := <-events:
		if ev.Kind != KindProbe || len(ev.Payload) != 0 {
			t.Fatalf("event %+v", ev)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no event")
	}
}

func TestKindStrings(t *testing.T) {
	for kind, want := range map[AttackKind]string{
		KindProbe: "probe", KindEternalBlue: "eternalblue",
		KindEternalRomance: "eternalromance", KindPayloadDrop: "payload-drop",
		KindSessionSetup: "session-setup", AttackKind(99): "unknown",
	} {
		if got := kind.String(); got != want {
			t.Errorf("%d.String() = %q", kind, got)
		}
	}
	if !strings.Contains(KindEternalBlue.String(), "eternal") {
		t.Fatal("sanity")
	}
}
