package smb

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
	client := netsim.Converse(NewServer(cfg).NewStepper(), netsim.MustParseIPv4("192.0.2.93"),
		netsim.Endpoint{IP: netsim.MustParseIPv4("10.0.0.8"), Port: 445}, time.Now())
	t.Cleanup(func() { client.Close() })
	return client, func() []Event { return events }
}

func TestProbeNegotiate(t *testing.T) {
	client, events := startServer(t, Config{Dialect: "NT LM 0.12"})
	dialect, err := Probe(client)
	if err != nil {
		t.Fatal(err)
	}
	if dialect != "NT LM 0.12" {
		t.Fatalf("dialect %q", dialect)
	}
	client.Close()
	evs := events()
	if len(evs) == 0 {
		t.Fatal("no event")
	}
	ev := evs[0]
	if ev.Kind != KindProbe || ev.Dialect != "NT LM 0.12" {
		t.Fatalf("event %+v", ev)
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
	if _, err := client.Read(buf); err != nil {
		t.Fatal(err)
	}
	client.Close()
	evs := events()
	if len(evs) == 0 {
		t.Fatal("no event")
	}
	ev := evs[0]
	if ev.Kind != KindPayloadDrop {
		t.Fatalf("kind %v", ev.Kind)
	}
	if string(ev.Payload) != string(payload) {
		t.Fatalf("payload %q", ev.Payload)
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
	evs := events()
	if len(evs) == 0 {
		t.Fatal("no event")
	}
	ev := evs[0]
	if ev.Kind != KindEternalRomance && ev.Kind != KindProbe {
		t.Fatalf("kind %v", ev.Kind)
	}
}

func TestGarbageIgnored(t *testing.T) {
	client, events := startServer(t, Config{})
	// A NetBIOS frame that is not SMB.
	if _, err := client.Write(netbiosFrame([]byte("ABCD-not-smb"))); err != nil {
		t.Fatal(err)
	}
	client.Close()
	evs := events()
	if len(evs) == 0 {
		t.Fatal("no event")
	}
	ev := evs[0]
	if ev.Kind != KindProbe || len(ev.Payload) != 0 {
		t.Fatalf("event %+v", ev)
	}
}

// TestDecodeNetbiosRejectsNonzeroFirstByte pins the direct-TCP header's
// zero byte: a NetBIOS keepalive (0x85) or any other nonzero first byte is
// malformed, not the head of a 24-bit length.
func TestDecodeNetbiosRejectsNonzeroFirstByte(t *testing.T) {
	for _, raw := range [][]byte{{0x85, 0, 0, 0}, {0x01, 0, 0, 2, 'o', 'k'}} {
		if msg, n, err := decodeNetbios(raw, 1<<16); err != ErrMalformed {
			t.Fatalf("%x decoded: message %x, n %d, err %v", raw, msg, n, err)
		}
	}
	raw := []byte{0, 0, 0, 2, 'o', 'k'}
	if msg, n, err := decodeNetbios(raw, 1<<16); err != nil || n != 6 || string(msg) != "ok" {
		t.Fatalf("valid frame: message %x, n %d, err %v", msg, n, err)
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
