package ftp

import (
	"strings"
	"testing"
	"time"

	"openhire/internal/netsim"
)

// startServer dials one session; events returns what the server has logged
// so far.
func startServer(t *testing.T, cfg Config) (*Client, func() []Event) {
	t.Helper()
	var events []Event
	prev := cfg.OnEvent
	cfg.OnEvent = func(ev Event) {
		if prev != nil {
			prev(ev)
		}
		events = append(events, ev)
	}
	client := netsim.Converse(NewServer(cfg).NewStepper(), netsim.MustParseIPv4("192.0.2.92"),
		netsim.Endpoint{IP: netsim.MustParseIPv4("10.0.0.7"), Port: 21}, time.Now())
	t.Cleanup(func() { client.Close() })
	return NewClient(client), func() []Event { return events }
}

func TestBannerAndAnonymousLogin(t *testing.T) {
	c, _ := startServer(t, Config{Banner: "220 (vsFTPd 2.3.4)", AllowAnonymous: true})
	banner, err := c.ReadReply()
	if err != nil {
		t.Fatal(err)
	}
	if banner != "220 (vsFTPd 2.3.4)" {
		t.Fatalf("banner %q", banner)
	}
	ok, err := c.Login("anonymous", "probe@example.com")
	if err != nil || !ok {
		t.Fatalf("anonymous login = %v, %v", ok, err)
	}
}

func TestAnonymousRejectedWhenDisabled(t *testing.T) {
	c, _ := startServer(t, Config{})
	if _, err := c.ReadReply(); err != nil {
		t.Fatal(err)
	}
	ok, err := c.Login("anonymous", "x")
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("anonymous accepted")
	}
}

func TestCredentialLogin(t *testing.T) {
	c, _ := startServer(t, Config{Credentials: map[string]string{"iot": "cam123"}})
	if _, err := c.ReadReply(); err != nil {
		t.Fatal(err)
	}
	if ok, _ := c.Login("iot", "bad"); ok {
		t.Fatal("bad password accepted")
	}
	if ok, _ := c.Login("iot", "cam123"); !ok {
		t.Fatal("good password rejected")
	}
}

func TestMalwareUploadCaptured(t *testing.T) {
	c, events := startServer(t, Config{AllowAnonymous: true, AllowWrite: true})
	if _, err := c.ReadReply(); err != nil {
		t.Fatal(err)
	}
	if ok, _ := c.Login("anonymous", ""); !ok {
		t.Fatal("login failed")
	}
	payload := []byte("\x7fELF mozi-sample-bytes")
	ok, err := c.Store("mozi.arm7", payload)
	if err != nil || !ok {
		t.Fatalf("Store = %v, %v", ok, err)
	}
	c.Quit()
	evs := events()
	if len(evs) == 0 {
		t.Fatal("no event")
	}
	ev := evs[0]
	if len(ev.Uploads) != 1 || ev.Uploads[0].Name != "mozi.arm7" ||
		string(ev.Uploads[0].Data) != string(payload) {
		t.Fatalf("uploads %+v", ev.Uploads)
	}
	if !ev.LoginOK {
		t.Fatal("LoginOK false")
	}
}

func TestStoreDeniedWithoutWrite(t *testing.T) {
	c, _ := startServer(t, Config{AllowAnonymous: true})
	if _, err := c.ReadReply(); err != nil {
		t.Fatal(err)
	}
	if ok, _ := c.Login("anonymous", ""); !ok {
		t.Fatal("login failed")
	}
	ok, err := c.Store("x.bin", []byte("data"))
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("write accepted without AllowWrite")
	}
}

func TestCommandsLoggedAndUnknownCommand(t *testing.T) {
	c, events := startServer(t, Config{AllowAnonymous: true})
	if _, err := c.ReadReply(); err != nil {
		t.Fatal(err)
	}
	if err := c.send("HACK the planet"); err != nil {
		t.Fatal(err)
	}
	reply, err := c.ReadReply()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(reply, "502") {
		t.Fatalf("reply %q", reply)
	}
	c.Quit()
	evs := events()
	if len(evs) == 0 {
		t.Fatal("no event")
	}
	if ev := evs[0]; len(ev.Commands) == 0 || !strings.HasPrefix(ev.Commands[0], "HACK") {
		t.Fatalf("commands %v", ev.Commands)
	}
}
