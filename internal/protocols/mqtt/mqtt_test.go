package mqtt

import (
	"bytes"
	"testing"
	"testing/quick"
	"time"

	"openhire/internal/netsim"
)

// pingWithLength is a PINGREQ fixed header declaring a remaining length of
// lenBytes: decodePacket must read the length and, the body being absent,
// ask for exactly the whole packet.
func pingWithLength(lenBytes ...byte) []byte {
	return append([]byte{byte(PINGREQ) << 4}, lenBytes...)
}

func TestRemainingLengthRoundTrip(t *testing.T) {
	if err := quick.Check(func(n uint32) bool {
		v := 1 + int(n%maxRemainingLength) // 0 would decode the empty PINGREQ
		enc := encodeRemainingLength(nil, v)
		p, need, err := decodePacket(pingWithLength(enc...))
		return p == nil && err == nil && need == 1+len(enc)+v
	}, nil); err != nil {
		t.Fatal(err)
	}
}

// framingCase is one fixed header fed to decodePacket: the length it must
// report (the whole packet, or the next byte it needs) or the error.
type framingCase struct {
	name string
	raw  []byte
	n    int
	err  error
}

func checkFraming(t *testing.T, cases []framingCase) {
	t.Helper()
	for _, c := range cases {
		_, n, err := decodePacket(c.raw)
		if n != c.n || err != c.err {
			t.Errorf("%s: n=%d err=%v, want n=%d err=%v", c.name, n, err, c.n, c.err)
		}
	}
}

// TestRemainingLengthBoundaries: the remaining-length varint takes one to
// four bytes, up to maxRemainingLength, and a short head asks for exactly
// the next byte it needs.
func TestRemainingLengthBoundaries(t *testing.T) {
	checkFraming(t, []framingCase{
		{"empty", nil, 2, nil},
		{"header only", pingWithLength(), 2, nil},
		{"varint cut after one byte", pingWithLength(0x80), 3, nil},
		{"varint cut after three bytes", pingWithLength(0x80, 0x80, 0x80), 5, nil},
		{"zero", pingWithLength(0), 2, nil},
		{"one byte: 127", pingWithLength(0x7f), 2 + 127, nil},
		{"two bytes: 128", pingWithLength(0x80, 0x01), 3 + 128, nil},
		{"two bytes: 16383", pingWithLength(0xff, 0x7f), 3 + 16383, nil},
		{"three bytes: 16384", pingWithLength(0x80, 0x80, 0x01), 4 + 16384, nil},
		{"at the cap", pingWithLength(encodeRemainingLength(nil, maxRemainingLength)...), 4 + maxRemainingLength, nil},
		{"four bytes, non-minimal zero", pingWithLength(0x80, 0x80, 0x80, 0x00), 5, nil},
	})
}

// TestRemainingLengthMalformed: a continuation bit on the fourth byte is
// malformed whatever follows, and a length over the cap — the four-byte
// maximum among them — is refused before any body is read.
func TestRemainingLengthMalformed(t *testing.T) {
	checkFraming(t, []framingCase{
		{"continuation on the fourth byte", pingWithLength(0x80, 0x80, 0x80, 0x80, 0x01), 0, ErrMalformed},
		{"one over the cap", pingWithLength(encodeRemainingLength(nil, maxRemainingLength+1)...), 0, ErrPacketTooLong},
		{"four-byte maximum", pingWithLength(0xff, 0xff, 0xff, 0x7f), 0, ErrPacketTooLong},
	})
}

// TestDecodePacketAllocatesNothingWhileIncomplete: a flood of partial
// packets costs the broker no garbage.
func TestDecodePacketAllocatesNothingWhileIncomplete(t *testing.T) {
	raw := (&Packet{Type: PUBLISH, Topic: "sensors/temp", Payload: []byte("21.5")}).Encode()
	allocs := testing.AllocsPerRun(100, func() {
		for k := range len(raw) {
			if p, _, _ := decodePacket(raw[:k]); p != nil {
				t.Fatal("decoded a packet from a strict prefix")
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("%v allocations per pass over the prefixes, want 0", allocs)
	}
}

func roundTrip(t *testing.T, p *Packet) *Packet {
	t.Helper()
	got, err := ReadPacket(bytes.NewReader(p.Encode()))
	if err != nil {
		t.Fatalf("decode %v: %v", p.Type, err)
	}
	return got
}

func TestConnectRoundTrip(t *testing.T) {
	p := &Packet{Type: CONNECT, ClientID: "probe-1", KeepAlive: 60}
	got := roundTrip(t, p)
	if got.ClientID != "probe-1" || got.HasAuth || got.KeepAlive != 60 {
		t.Fatalf("got %+v", got)
	}

	p = &Packet{Type: CONNECT, ClientID: "c", HasAuth: true, Username: "admin", Password: "admin"}
	got = roundTrip(t, p)
	if !got.HasAuth || got.Username != "admin" || got.Password != "admin" {
		t.Fatalf("got %+v", got)
	}
}

func TestConnackRoundTrip(t *testing.T) {
	for _, code := range []ConnackCode{ConnAccepted, ConnBadCredentials, ConnNotAuthorized} {
		got := roundTrip(t, &Packet{Type: CONNACK, ReturnCode: code})
		if got.ReturnCode != code {
			t.Fatalf("code %d -> %d", code, got.ReturnCode)
		}
	}
}

func TestPublishRoundTrip(t *testing.T) {
	p := &Packet{Type: PUBLISH, Topic: "sensors/temp", Payload: []byte("21.5"), Retain: true}
	got := roundTrip(t, p)
	if got.Topic != "sensors/temp" || string(got.Payload) != "21.5" || !got.Retain {
		t.Fatalf("got %+v", got)
	}
	p = &Packet{Type: PUBLISH, Topic: "t", Payload: []byte("x"), QoS: 1, PacketID: 99}
	got = roundTrip(t, p)
	if got.QoS != 1 || got.PacketID != 99 || string(got.Payload) != "x" {
		t.Fatalf("qos1 got %+v", got)
	}
}

func TestSubscribeRoundTrip(t *testing.T) {
	p := &Packet{Type: SUBSCRIBE, PacketID: 7, TopicFilter: []string{"$SYS/#", "home/+/light"}, GrantedQoS: []byte{0, 0}}
	got := roundTrip(t, p)
	if got.PacketID != 7 || len(got.TopicFilter) != 2 || got.TopicFilter[0] != "$SYS/#" {
		t.Fatalf("got %+v", got)
	}
}

func TestControlPacketsRoundTrip(t *testing.T) {
	for _, typ := range []PacketType{PINGREQ, PINGRESP, DISCONNECT} {
		got := roundTrip(t, &Packet{Type: typ})
		if got.Type != typ {
			t.Fatalf("type %v -> %v", typ, got.Type)
		}
	}
}

func TestDecodeMalformed(t *testing.T) {
	cases := [][]byte{
		{byte(CONNECT) << 4, 2, 0, 5},     // truncated protocol name
		{byte(CONNACK) << 4, 1, 0},        // short CONNACK
		{byte(SUBSCRIBE)<<4 | 2, 2, 0, 1}, // no filters
		{0x00, 0},                         // reserved type 0
		{0xf0, 0},                         // reserved type 15
	}
	for i, raw := range cases {
		if _, err := ReadPacket(bytes.NewReader(raw)); err == nil {
			t.Errorf("case %d decoded successfully", i)
		}
	}
}

func TestDecodeFuzzNoPanic(t *testing.T) {
	if err := quick.Check(func(raw []byte) bool {
		_, _ = ReadPacket(bytes.NewReader(raw)) // must not panic
		return true
	}, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestTopicMatches(t *testing.T) {
	cases := []struct {
		filter, topic string
		want          bool
	}{
		{"a/b/c", "a/b/c", true},
		{"a/b/c", "a/b/d", false},
		{"a/+/c", "a/b/c", true},
		{"a/+/c", "a/b/d", false},
		{"#", "anything/at/all", true},
		{"$SYS/#", "$SYS/broker/version", true},
		{"$SYS/#", "other", false},
		{"a/#", "a/b/c/d", true},
		{"a/#", "b", false},
		{"a/b", "a/b/c", false},
		{"a/b/c", "a/b", false},
		{"+", "single", true},
		{"+", "two/levels", false},
	}
	for _, c := range cases {
		if got := TopicMatches(c.filter, c.topic); got != c.want {
			t.Errorf("TopicMatches(%q, %q) = %v, want %v", c.filter, c.topic, got, c.want)
		}
	}
}

// startBroker dials one broker session.
func startBroker(t *testing.T, cfg BrokerConfig) (*Broker, *Client) {
	t.Helper()
	b := NewBroker(cfg)
	client := netsim.Converse(b.NewStepper(), netsim.MustParseIPv4("192.0.2.9"),
		netsim.Endpoint{IP: netsim.MustParseIPv4("10.0.0.2"), Port: 1883}, time.Now())
	t.Cleanup(func() { client.Close() })
	return b, NewClient(client)
}

func TestBrokerAnonymousAccepted(t *testing.T) {
	var events []Event
	_, c := startBroker(t, BrokerConfig{
		OnEvent: func(ev Event) { events = append(events, ev) },
	})
	code, err := c.Connect("zmap-probe", "", "")
	if err != nil || code != ConnAccepted {
		t.Fatalf("Connect = %v, %v", code, err)
	}
	if len(events) != 1 || events[0].Kind != EventConnect || events[0].Code != ConnAccepted {
		t.Fatalf("events = %+v", events)
	}
}

func TestBrokerAuthRequired(t *testing.T) {
	_, c := startBroker(t, BrokerConfig{
		RequireAuth: true,
		Username:    "iot",
		Password:    "s3cret",
	})
	code, err := c.Connect("probe", "", "")
	if err != ErrRejected || code != ConnNotAuthorized {
		t.Fatalf("anonymous: %v, %v", code, err)
	}
}

func TestBrokerAuthWrongPassword(t *testing.T) {
	_, c := startBroker(t, BrokerConfig{
		RequireAuth: true,
		Username:    "iot",
		Password:    "s3cret",
	})
	code, err := c.Connect("probe", "iot", "wrong")
	if err != ErrRejected || code != ConnBadCredentials {
		t.Fatalf("wrong pass: %v, %v", code, err)
	}
}

func TestBrokerAuthSuccess(t *testing.T) {
	_, c := startBroker(t, BrokerConfig{
		RequireAuth: true,
		Username:    "iot",
		Password:    "s3cret",
	})
	code, err := c.Connect("probe", "iot", "s3cret")
	if err != nil || code != ConnAccepted {
		t.Fatalf("auth: %v, %v", code, err)
	}
}

func TestBrokerRetainedDelivery(t *testing.T) {
	b, c := startBroker(t, BrokerConfig{})
	b.Retain("homeassistant/light/kitchen", []byte("on"))
	if _, err := c.Connect("probe", "", ""); err != nil {
		t.Fatal(err)
	}
	got, err := c.RetainedSnapshot("#", 100)
	if err != nil {
		t.Fatal(err)
	}
	if string(got["homeassistant/light/kitchen"]) != "on" {
		t.Fatalf("retained topics: %v", keysOf(got))
	}
	if _, ok := got["$SYS/broker/version"]; !ok {
		t.Fatal("$SYS topics not delivered for wildcard subscription")
	}
}

func TestBrokerSysAccessEvent(t *testing.T) {
	var events []Event
	_, c := startBroker(t, BrokerConfig{
		OnEvent: func(ev Event) { events = append(events, ev) },
	})
	if _, err := c.Connect("probe", "", ""); err != nil {
		t.Fatal(err)
	}
	if err := c.Subscribe("$SYS/#"); err != nil {
		t.Fatal(err)
	}
	var sawSys bool
	for _, ev := range events {
		if ev.Kind == EventSysAccess {
			sawSys = true
		}
	}
	if !sawSys {
		t.Fatalf("no EventSysAccess in %+v", events)
	}
}

func TestBrokerPoisoningChangesRetained(t *testing.T) {
	b, c := startBroker(t, BrokerConfig{})
	b.Retain("plant/valve", []byte("closed"))
	if _, err := c.Connect("attacker", "", ""); err != nil {
		t.Fatal(err)
	}
	if err := c.Publish("plant/valve", []byte("open"), true); err != nil {
		t.Fatal(err)
	}
	if err := c.Ping(); err != nil { // flush: broker processed the publish
		t.Fatal(err)
	}
	v, ok := b.RetainedValue("plant/valve")
	if !ok || string(v) != "open" {
		t.Fatalf("retained = %q, %v", v, ok)
	}
}

func TestBrokerFanOut(t *testing.T) {
	b := NewBroker(BrokerConfig{})
	mk := func() *Client {
		client := netsim.Converse(b.NewStepper(), netsim.MustParseIPv4("192.0.2.9"),
			netsim.Endpoint{IP: netsim.MustParseIPv4("10.0.0.2"), Port: 1883}, time.Now())
		t.Cleanup(func() { client.Close() })
		return NewClient(client)
	}
	sub, pub := mk(), mk()

	if _, err := sub.Connect("sub", "", ""); err != nil {
		t.Fatal(err)
	}
	if err := sub.Subscribe("alerts/#"); err != nil {
		t.Fatal(err)
	}
	if _, err := pub.Connect("pub", "", ""); err != nil {
		t.Fatal(err)
	}
	if err := pub.Publish("alerts/fire", []byte("now"), false); err != nil {
		t.Fatal(err)
	}
	// The publish fanned out to the subscriber is already on its stream.
	got, err := ReadPacket(sub.conn)
	if err != nil || got.Type != PUBLISH || got.Topic != "alerts/fire" || string(got.Payload) != "now" {
		t.Fatalf("fan-out not delivered: %+v, %v", got, err)
	}
}

func TestBrokerPublishFloodGuard(t *testing.T) {
	_, c := startBroker(t, BrokerConfig{MaxPublishesPerConn: 5})
	if _, err := c.Connect("flood", "", ""); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		_ = c.Publish("x", []byte("y"), false)
	}
	// Session must be torn down: ping fails.
	if err := c.Ping(); err == nil {
		t.Fatal("broker did not close flooding session")
	}
}

func TestBrokerRejectsNonConnectFirst(t *testing.T) {
	_, c := startBroker(t, BrokerConfig{})
	if err := c.Ping(); err == nil {
		t.Fatal("broker answered PINGREQ before CONNECT")
	}
}

func keysOf(m map[string][]byte) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

func BenchmarkPacketEncodePublish(b *testing.B) {
	p := &Packet{Type: PUBLISH, Topic: "sensors/temperature/living-room", Payload: []byte("21.53")}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = p.Encode()
	}
}

func BenchmarkPacketDecodePublish(b *testing.B) {
	raw := (&Packet{Type: PUBLISH, Topic: "sensors/temperature/living-room", Payload: []byte("21.53")}).Encode()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ReadPacket(bytes.NewReader(raw)); err != nil {
			b.Fatal(err)
		}
	}
}
