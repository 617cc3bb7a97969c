package coap

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"

	"openhire/internal/netsim"
)

func TestMessageRoundTrip(t *testing.T) {
	m := &Message{
		Type:      Confirmable,
		Code:      CodeGET,
		MessageID: 0xBEEF,
		Token:     []byte{1, 2, 3},
	}
	m.SetPath("/.well-known/core")
	got, err := Unmarshal(m.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got.Type != Confirmable || got.Code != CodeGET || got.MessageID != 0xBEEF {
		t.Fatalf("header: %+v", got)
	}
	if !bytes.Equal(got.Token, []byte{1, 2, 3}) {
		t.Fatalf("token: %v", got.Token)
	}
	if got.Path() != "/.well-known/core" {
		t.Fatalf("path: %q", got.Path())
	}
}

func TestMessagePayloadRoundTrip(t *testing.T) {
	m := &Message{Type: Acknowledgment, Code: CodeContent, MessageID: 1, Payload: []byte("</sensors>")}
	got, err := Unmarshal(m.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if string(got.Payload) != "</sensors>" {
		t.Fatalf("payload: %q", got.Payload)
	}
}

func TestOptionDeltaEncoding(t *testing.T) {
	// Options spanning the 13/269 extension boundaries.
	m := &Message{Type: Confirmable, Code: CodeGET, MessageID: 2, Options: []Option{
		{Number: 1, Value: []byte("a")},
		{Number: 14, Value: []byte("b")},                      // delta 13 → 1-byte extension
		{Number: 300, Value: []byte("c")},                     // delta 286 → 2-byte extension
		{Number: 2000, Value: bytes.Repeat([]byte("x"), 300)}, // long value
	}}
	got, err := Unmarshal(m.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Options) != 4 {
		t.Fatalf("options: %d", len(got.Options))
	}
	wantNums := []uint16{1, 14, 300, 2000}
	for i, o := range got.Options {
		if o.Number != wantNums[i] {
			t.Fatalf("option %d number %d, want %d", i, o.Number, wantNums[i])
		}
	}
	if len(got.Options[3].Value) != 300 {
		t.Fatalf("long option value %d bytes", len(got.Options[3].Value))
	}
}

func TestUnmarshalMalformed(t *testing.T) {
	cases := [][]byte{
		nil,
		{0x40},                         // short header
		{0x00, 0x01, 0x00, 0x01},       // wrong version
		{0x49, 0x01, 0x00, 0x01},       // TKL 9 > 8
		{0x41, 0x01, 0x00, 0x01},       // TKL 1, no token bytes
		{0x40, 0x01, 0x00, 0x01, 0xff}, // payload marker, no payload
		{0x40, 0x01, 0x00, 0x01, 0xf0}, // reserved option nibble 15
	}
	for i, raw := range cases {
		if _, err := Unmarshal(raw); err == nil {
			t.Errorf("case %d decoded", i)
		}
	}
}

func TestUnmarshalFuzzNoPanic(t *testing.T) {
	if err := quick.Check(func(raw []byte) bool {
		_, _ = Unmarshal(raw)
		return true
	}, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestMarshalUnmarshalProperty(t *testing.T) {
	if err := quick.Check(func(mid uint16, token []byte, payload []byte) bool {
		if len(token) > 8 {
			token = token[:8]
		}
		m := &Message{Type: NonConfirmable, Code: CodeContent, MessageID: mid,
			Token: append([]byte(nil), token...), Payload: payload}
		got, err := Unmarshal(m.Marshal())
		if err != nil {
			return false
		}
		return got.MessageID == mid && bytes.Equal(got.Token, token) &&
			(len(payload) == 0) == (len(got.Payload) == 0) &&
			(len(payload) == 0 || bytes.Equal(got.Payload, payload))
	}, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestCodeString(t *testing.T) {
	cases := map[Code]string{
		CodeGET: "GET", CodePUT: "PUT", CodeContent: "2.05",
		CodeUnauthorized: "4.01", CodeNotFound: "4.04", CodeEmpty: "0.00",
	}
	for c, want := range cases {
		if c.String() != want {
			t.Errorf("%d.String() = %q, want %q", c, c.String(), want)
		}
	}
}

func testServer(policy AccessPolicy, events *[]RequestEvent) *Server {
	cfg := ServerConfig{
		Policy:    policy,
		Resources: DefaultSensorResources("smoke-sensor"),
	}
	if events != nil {
		cfg.OnEvent = func(ev RequestEvent) { *events = append(*events, ev) }
	}
	return NewServer(cfg)
}

var probeFrom = netsim.Endpoint{IP: netsim.MustParseIPv4("192.0.2.50"), Port: 40000}

func TestDiscoveryDisclosesResources(t *testing.T) {
	var events []RequestEvent
	s := testServer(AccessOpen, &events)
	c := NewClient(1)
	resp := s.HandleDatagram(probeFrom, c.DiscoveryProbe())
	if resp == nil {
		t.Fatal("no response")
	}
	body, disclosed, err := ParseDiscovery(resp)
	if err != nil || !disclosed {
		t.Fatalf("ParseDiscovery: %v, %v", disclosed, err)
	}
	if !strings.Contains(body, "</sensors/temperature>") {
		t.Fatalf("body %q", body)
	}
	if len(events) != 1 || events[0].Path != WellKnownCore || events[0].ResponseBytes == 0 {
		t.Fatalf("events: %+v", events)
	}
}

func TestAuthenticatedPolicyRejects(t *testing.T) {
	s := testServer(AccessAuthenticated, nil)
	c := NewClient(2)
	resp := s.HandleDatagram(probeFrom, c.DiscoveryProbe())
	m, err := Unmarshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	if m.Code != CodeUnauthorized {
		t.Fatalf("code = %v", m.Code)
	}
	if _, disclosed, _ := ParseDiscovery(resp); disclosed {
		t.Fatal("authenticated policy disclosed resources")
	}
}

func TestGetResource(t *testing.T) {
	s := testServer(AccessOpen, nil)
	c := NewClient(3)
	m, err := Unmarshal(s.HandleDatagram(probeFrom, c.Get("/sensors/temperature")))
	if err != nil {
		t.Fatal(err)
	}
	if m.Code != CodeContent || string(m.Payload) != "21.5" {
		t.Fatalf("got %v %q", m.Code, m.Payload)
	}
	m, err = Unmarshal(s.HandleDatagram(probeFrom, c.Get("/nope")))
	if err != nil {
		t.Fatal(err)
	}
	if m.Code != CodeNotFound {
		t.Fatalf("missing resource code %v", m.Code)
	}
}

func TestPutPoisonsWritableResource(t *testing.T) {
	s := testServer(AccessOpen, nil)
	c := NewClient(4)
	m, err := Unmarshal(s.HandleDatagram(probeFrom, c.Put("/config/name", []byte("pwned"))))
	if err != nil {
		t.Fatal(err)
	}
	if m.Code != CodeChanged {
		t.Fatalf("PUT code %v", m.Code)
	}
	v, ok := s.Value("/config/name")
	if !ok || string(v) != "pwned" {
		t.Fatalf("value = %q, %v", v, ok)
	}
}

func TestPutForbiddenOnReadOnly(t *testing.T) {
	s := testServer(AccessOpen, nil)
	c := NewClient(5)
	m, err := Unmarshal(s.HandleDatagram(probeFrom, c.Put("/firmware/version", []byte("0"))))
	if err != nil {
		t.Fatal(err)
	}
	if m.Code != CodeForbidden {
		t.Fatalf("code %v", m.Code)
	}
	// Admin policy allows writing even read-only resources.
	sa := testServer(AccessAdmin, nil)
	m, err = Unmarshal(sa.HandleDatagram(probeFrom, c.Put("/firmware/version", []byte("0"))))
	if err != nil {
		t.Fatal(err)
	}
	if m.Code != CodeChanged {
		t.Fatalf("admin PUT code %v", m.Code)
	}
}

func TestDeleteRequiresAdmin(t *testing.T) {
	c := NewClient(6)
	del := func(s *Server) Code {
		m := &Message{Type: Confirmable, Code: CodeDELETE, MessageID: 9}
		m.SetPath("/sensors/humidity")
		resp, err := Unmarshal(s.HandleDatagram(probeFrom, m.Marshal()))
		if err != nil {
			t.Fatal(err)
		}
		return resp.Code
	}
	_ = c
	if code := del(testServer(AccessOpen, nil)); code != CodeForbidden {
		t.Fatalf("open DELETE code %v", code)
	}
	s := testServer(AccessAdmin, nil)
	if code := del(s); code != CodeDeleted {
		t.Fatalf("admin DELETE code %v", code)
	}
	if _, ok := s.Value("/sensors/humidity"); ok {
		t.Fatal("resource still present after DELETE")
	}
}

func TestGarbageDropped(t *testing.T) {
	s := testServer(AccessOpen, nil)
	if resp := s.HandleDatagram(probeFrom, []byte("GET / HTTP/1.1")); resp != nil {
		t.Fatal("garbage got a response")
	}
}

func TestBannerPrefixed(t *testing.T) {
	s := NewServer(ServerConfig{
		Policy:    AccessAdmin,
		Banner:    "220-Admin ",
		Resources: DefaultSensorResources("x"),
	})
	c := NewClient(7)
	body, _, err := ParseDiscovery(s.HandleDatagram(probeFrom, c.DiscoveryProbe()))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(body, "220-Admin ") {
		t.Fatalf("body %q", body)
	}
}

func TestNonConfirmableEchoed(t *testing.T) {
	s := testServer(AccessOpen, nil)
	m := &Message{Type: NonConfirmable, Code: CodeGET, MessageID: 5}
	m.SetPath(WellKnownCore)
	resp, err := Unmarshal(s.HandleDatagram(probeFrom, m.Marshal()))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Type != NonConfirmable {
		t.Fatalf("response type %v", resp.Type)
	}
}

func BenchmarkDiscoveryRoundTrip(b *testing.B) {
	s := testServer(AccessOpen, nil)
	c := NewClient(8)
	probe := c.DiscoveryProbe()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if resp := s.HandleDatagram(probeFrom, probe); resp == nil {
			b.Fatal("no response")
		}
	}
}
