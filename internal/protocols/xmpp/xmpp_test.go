package xmpp

import (
	"strings"
	"testing"
	"testing/quick"
	"time"

	"openhire/internal/netsim"
)

func TestStreamResponseAndParseFeatures(t *testing.T) {
	f := Features{
		Mechanisms: []string{"PLAIN", "ANONYMOUS"},
		RequireTLS: false,
		Domain:     "hue-bridge.local",
		Software:   "prosody",
	}
	banner := StreamResponse(f, "abc123")
	got := ParseFeatures(banner)
	if !got.HasMechanism("PLAIN") || !got.HasMechanism("ANONYMOUS") {
		t.Fatalf("mechanisms %v", got.Mechanisms)
	}
	if got.RequireTLS {
		t.Fatal("RequireTLS parsed true")
	}
	if got.Domain != "hue-bridge.local" {
		t.Fatalf("domain %q", got.Domain)
	}
}

func TestParseFeaturesTLSRequired(t *testing.T) {
	banner := StreamResponse(Features{Mechanisms: []string{"SCRAM-SHA-1"}, RequireTLS: true, Domain: "d"}, "id")
	got := ParseFeatures(banner)
	if !got.RequireTLS {
		t.Fatal("RequireTLS not detected")
	}
	if got.HasMechanism("PLAIN") {
		t.Fatal("phantom PLAIN")
	}
}

func TestParseFeaturesTruncatedBanner(t *testing.T) {
	banner := "<stream:features><mechanisms><mechanism>PLAIN</mechanism><mechan"
	got := ParseFeatures(banner)
	if len(got.Mechanisms) != 1 || got.Mechanisms[0] != "PLAIN" {
		t.Fatalf("mechanisms %v", got.Mechanisms)
	}
}

func TestParseFeaturesFuzzNoPanic(t *testing.T) {
	if err := quick.Check(func(s string) bool {
		_ = ParseFeatures(s)
		return true
	}, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestAuthRequestRoundTrip(t *testing.T) {
	mech, user, pass, err := ParseAuth(AuthRequest("PLAIN", "admin", "hue123"))
	if err != nil {
		t.Fatal(err)
	}
	if mech != "PLAIN" || user != "admin" || pass != "hue123" {
		t.Fatalf("got %q %q %q", mech, user, pass)
	}
	mech, user, _, err = ParseAuth(AuthRequest("ANONYMOUS", "", ""))
	if err != nil || mech != "ANONYMOUS" || user != "" {
		t.Fatalf("anonymous: %q %q %v", mech, user, err)
	}
}

func TestParseAuthErrors(t *testing.T) {
	if _, _, _, err := ParseAuth("<auth xmlns='x'/>"); err == nil {
		t.Fatal("no mechanism accepted")
	}
	if _, _, _, err := ParseAuth("<auth mechanism='PLAIN"); err == nil {
		t.Fatal("unterminated attribute accepted")
	}
}

func startServer(t *testing.T, cfg ServerConfig) *netsim.ServiceConn {
	t.Helper()
	client := netsim.Converse(NewServer(cfg).NewStepper(), netsim.MustParseIPv4("192.0.2.80"),
		netsim.Endpoint{IP: netsim.MustParseIPv4("10.0.0.4"), Port: 5222}, time.Now())
	t.Cleanup(func() { client.Close() })
	return client
}

func TestProbeBannerAgainstServer(t *testing.T) {
	client := startServer(t, ServerConfig{
		Features: Features{Mechanisms: []string{"PLAIN", "ANONYMOUS"}, Domain: "philips-hue"},
	})
	banner, feats, err := ProbeBanner(client, "philips-hue")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(banner, "<mechanism>ANONYMOUS</mechanism>") {
		t.Fatalf("banner %q", banner)
	}
	if !feats.HasMechanism("anonymous") {
		t.Fatal("case-insensitive HasMechanism failed")
	}
}

func TestAnonymousLoginWhenAllowed(t *testing.T) {
	var events []Event
	client := startServer(t, ServerConfig{
		Features:       Features{Mechanisms: []string{"PLAIN", "ANONYMOUS"}, Domain: "d"},
		AllowAnonymous: true,
		OnEvent:        func(ev Event) { events = append(events, ev) },
	})
	if _, _, err := ProbeBanner(client, "d"); err != nil {
		t.Fatal(err)
	}
	ok, err := Authenticate(client, "ANONYMOUS", "", "")
	if err != nil || !ok {
		t.Fatalf("Authenticate = %v, %v", ok, err)
	}
	found := false
	for _, ev := range events {
		if ev.Kind == EventAuthAttempt && ev.Mechanism == "ANONYMOUS" && ev.Success {
			found = true
		}
	}
	if !found {
		t.Fatalf("auth event missing: %+v", events)
	}
}

func TestAnonymousRejectedWhenDisallowed(t *testing.T) {
	client := startServer(t, ServerConfig{
		Features: Features{Mechanisms: []string{"PLAIN"}, Domain: "d"},
	})
	if _, _, err := ProbeBanner(client, "d"); err != nil {
		t.Fatal(err)
	}
	ok, err := Authenticate(client, "ANONYMOUS", "", "")
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("anonymous accepted")
	}
}

func TestPlainCredentials(t *testing.T) {
	client := startServer(t, ServerConfig{
		Features:    Features{Mechanisms: []string{"PLAIN"}, Domain: "d"},
		Credentials: map[string]string{"hue": "bridge"},
	})
	if _, _, err := ProbeBanner(client, "d"); err != nil {
		t.Fatal(err)
	}
	if ok, _ := Authenticate(client, "PLAIN", "hue", "wrong"); ok {
		t.Fatal("wrong password accepted")
	}
	if ok, err := Authenticate(client, "PLAIN", "hue", "bridge"); err != nil || !ok {
		t.Fatalf("correct password rejected: %v, %v", ok, err)
	}
}

func TestStanzaHandler(t *testing.T) {
	client := startServer(t, ServerConfig{
		Features:       Features{Mechanisms: []string{"ANONYMOUS"}, Domain: "hue"},
		AllowAnonymous: true,
		StanzaHandler: func(stanza string) string {
			if strings.Contains(stanza, "lights") {
				return `<iq type='result'><lights state='on'/></iq>`
			}
			return ""
		},
	})
	if _, _, err := ProbeBanner(client, "hue"); err != nil {
		t.Fatal(err)
	}
	if ok, _ := Authenticate(client, "ANONYMOUS", "", ""); !ok {
		t.Fatal("anonymous rejected")
	}
	resp, err := SendStanza(client, `<iq type='get'><lights/></iq>`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(resp, "state='on'") {
		t.Fatalf("resp %q", resp)
	}
}

func TestXMLEscaping(t *testing.T) {
	banner := StreamResponse(Features{Mechanisms: []string{"PLA<IN"}, Domain: "a'b"}, "id")
	if strings.Contains(banner, "PLA<IN") || strings.Contains(banner, "from='a'b'") {
		t.Fatalf("unescaped banner: %q", banner)
	}
}

func BenchmarkParseFeatures(b *testing.B) {
	banner := StreamResponse(Features{Mechanisms: []string{"PLAIN", "ANONYMOUS", "SCRAM-SHA-1"}, Domain: "d"}, "id")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = ParseFeatures(banner)
	}
}
