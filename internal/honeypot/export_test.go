package honeypot

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"openhire/internal/iot"
	"openhire/internal/netsim"
)

func sampleEvents() []Event {
	base := netsim.ExperimentStart
	return []Event{
		{Time: base.Add(time.Hour), Honeypot: "Cowrie", Protocol: iot.ProtoTelnet,
			Src: netsim.MustParseIPv4("203.0.113.5"), Type: AttackBruteForce,
			Username: "admin", Password: "admin"},
		{Time: base.Add(26 * time.Hour), Honeypot: "Dionaea", Protocol: iot.ProtoFTP,
			Src: netsim.MustParseIPv4("198.51.100.9"), Type: AttackMalware,
			Payload: []byte{0x7f, 'E', 'L', 'F', 0x00, 0xff}, Detail: "mozi.arm7"},
		{Time: base.Add(27 * time.Hour), Honeypot: "U-Pot", Protocol: iot.ProtoUPnP,
			Src: netsim.MustParseIPv4("192.0.2.77"), Type: AttackDoS,
			Detail: "rate threshold exceeded"},
	}
}

func TestExportImportRoundTrip(t *testing.T) {
	events := sampleEvents()
	var buf bytes.Buffer
	if err := ExportJSONL(&buf, events); err != nil {
		t.Fatal(err)
	}
	got, err := ImportJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(events) {
		t.Fatalf("imported %d events, want %d", len(got), len(events))
	}
	for i := range events {
		want, have := events[i], got[i]
		if !want.Time.Equal(have.Time) || want.Honeypot != have.Honeypot ||
			want.Protocol != have.Protocol || want.Src != have.Src ||
			want.Type != have.Type || want.Username != have.Username ||
			want.Detail != have.Detail || !bytes.Equal(want.Payload, have.Payload) {
			t.Fatalf("event %d: %+v != %+v", i, have, want)
		}
	}
}

func TestExportRoundTripProperty(t *testing.T) {
	if err := quick.Check(func(user, pass, detail string, payload []byte, src uint32) bool {
		ev := Event{
			Time: netsim.ExperimentStart, Honeypot: "HosTaGe",
			Protocol: iot.ProtoMQTT, Src: netsim.IPv4(src), Type: AttackPoisoning,
			Username: user, Password: pass, Detail: detail, Payload: payload,
		}
		var buf bytes.Buffer
		if err := ExportJSONL(&buf, []Event{ev}); err != nil {
			return false
		}
		got, err := ImportJSONL(&buf)
		if err != nil || len(got) != 1 {
			return false
		}
		g := got[0]
		return g.Username == user && g.Password == pass && g.Detail == detail &&
			g.Src == netsim.IPv4(src) &&
			(len(payload) == 0 && len(g.Payload) == 0 || bytes.Equal(g.Payload, payload))
	}, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestImportRejectsGarbage(t *testing.T) {
	if _, err := ImportJSONL(strings.NewReader(`{"src":"not-an-ip"}`)); err == nil {
		t.Fatal("bad src imported")
	}
	if _, err := ImportJSONL(strings.NewReader(`{"src":"1.2.3.4","payload":"%%%"}`)); err == nil {
		t.Fatal("bad payload imported")
	}
	if _, err := ImportJSONL(strings.NewReader("not json")); err == nil {
		t.Fatal("non-JSON imported")
	}
}

func TestPartitionByDay(t *testing.T) {
	events := sampleEvents()
	keys, days := PartitionByDay(events)
	if len(keys) != 2 || keys[0] != "2021-04-01" || keys[1] != "2021-04-02" {
		t.Fatalf("keys %v", keys)
	}
	if len(days) != 2 || len(days[0]) != 1 || len(days[1]) != 2 {
		t.Fatalf("partition %v", days)
	}
	// The runs are the input's own events, not copies.
	if &days[0][0] != &events[0] || &days[1][0] != &events[1] {
		t.Fatal("partition copied the events")
	}
	if keys, days := PartitionByDay(nil); keys != nil || days != nil {
		t.Fatalf("empty input partitioned into %v / %v", keys, days)
	}
}

func TestExportEmptyLog(t *testing.T) {
	var buf bytes.Buffer
	if err := ExportJSONL(&buf, nil); err != nil {
		t.Fatal(err)
	}
	got, err := ImportJSONL(&buf)
	if err != nil || len(got) != 0 {
		t.Fatalf("empty round trip: %v, %v", got, err)
	}
}
