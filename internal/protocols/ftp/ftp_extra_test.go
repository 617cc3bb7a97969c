package ftp

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"openhire/internal/netsim"
)

func TestSystPwdList(t *testing.T) {
	c, _ := startServer(t, Config{
		AllowAnonymous: true,
		Files:          map[string][]byte{"firmware.bin": []byte("x"), "config.txt": []byte("y")},
	})
	if _, err := c.ReadReply(); err != nil {
		t.Fatal(err)
	}
	if ok, _ := c.Login("anonymous", ""); !ok {
		t.Fatal("login failed")
	}
	if err := c.send("SYST"); err != nil {
		t.Fatal(err)
	}
	if reply, _ := c.ReadReply(); !strings.HasPrefix(reply, "215") {
		t.Fatalf("SYST reply %q", reply)
	}
	if err := c.send("PWD"); err != nil {
		t.Fatal(err)
	}
	if reply, _ := c.ReadReply(); !strings.HasPrefix(reply, "257") {
		t.Fatalf("PWD reply %q", reply)
	}
	if err := c.send("LIST"); err != nil {
		t.Fatal(err)
	}
	var sawFile, sawEnd bool
	for i := 0; i < 6; i++ {
		reply, err := c.ReadReply()
		if err != nil {
			break
		}
		if strings.Contains(reply, "firmware.bin") {
			sawFile = true
		}
		if strings.HasPrefix(reply, "226") {
			sawEnd = true
			break
		}
	}
	if !sawFile || !sawEnd {
		t.Fatalf("LIST incomplete: file=%v end=%v", sawFile, sawEnd)
	}
}

func TestListRequiresLogin(t *testing.T) {
	c, _ := startServer(t, Config{AllowAnonymous: true})
	if _, err := c.ReadReply(); err != nil {
		t.Fatal(err)
	}
	if err := c.send("LIST"); err != nil {
		t.Fatal(err)
	}
	if reply, _ := c.ReadReply(); !strings.HasPrefix(reply, "530") {
		t.Fatalf("unauthenticated LIST reply %q", reply)
	}
}

func TestUploadSizeLimit(t *testing.T) {
	c, events := startServer(t, Config{
		AllowAnonymous: true, AllowWrite: true, MaxUploadBytes: 64,
	})
	if _, err := c.ReadReply(); err != nil {
		t.Fatal(err)
	}
	if ok, _ := c.Login("anonymous", ""); !ok {
		t.Fatal("login failed")
	}
	ok, err := c.Store("big.bin", make([]byte, 1024))
	if err == nil && ok {
		t.Fatal("oversized upload accepted")
	}
	evs := events()
	if len(evs) == 0 {
		t.Fatal("session did not end")
	}
	if len(evs[0].Uploads) != 0 {
		t.Fatal("oversized upload recorded")
	}
}

func TestQuitEvent(t *testing.T) {
	c, events := startServer(t, Config{})
	if _, err := c.ReadReply(); err != nil {
		t.Fatal(err)
	}
	c.Quit()
	evs := events()
	if len(evs) == 0 {
		t.Fatal("no event")
	}
	if ev := evs[0]; len(ev.Commands) != 1 || ev.Commands[0] != "QUIT" {
		t.Fatalf("commands %v", ev.Commands)
	}
}

// TestListOrderIsSorted pins the wire order of a directory listing: the
// reply bytes are part of the run's artifact, so they may not follow map
// iteration order (which Go randomises per range statement).
func TestListOrderIsSorted(t *testing.T) {
	files := map[string][]byte{
		"firmware.bin": nil, "config.txt": nil, "passwd": nil, "update.sh": nil, "boot.img": nil,
	}
	want := []string{"boot.img", "config.txt", "firmware.bin", "passwd", "update.sh"}
	for session := 0; session < 64; session++ {
		c, _ := startServer(t, Config{AllowAnonymous: true, Files: files})
		if _, err := c.ReadReply(); err != nil {
			t.Fatal(err)
		}
		if ok, _ := c.Login("anonymous", ""); !ok {
			t.Fatal("login failed")
		}
		if err := c.send("LIST"); err != nil {
			t.Fatal(err)
		}
		var got []string
		for {
			reply, err := c.ReadReply()
			if err != nil {
				t.Fatal(err)
			}
			if strings.HasPrefix(reply, "226") {
				break
			}
			if !strings.HasPrefix(reply, "150") {
				got = append(got, reply)
			}
		}
		if strings.Join(got, " ") != strings.Join(want, " ") {
			t.Fatalf("session %d listed %v, want %v", session, got, want)
		}
	}
}

// tailProbe wraps a stepper and records the largest unconsumed input it
// leaves behind when it asks for more.
type tailProbe struct {
	inner   netsim.Stepper
	maxTail int
}

func (p *tailProbe) Step(c *netsim.ServerConv, ev netsim.ConvEvent) netsim.StepVerdict {
	v := p.inner.Step(c, ev)
	if v == netsim.StepMore && len(c.Input()) > p.maxTail {
		p.maxTail = len(c.Input())
	}
	return v
}

// TestLineCapEndsSession: a peer that sends 1 MiB without a newline is
// answered 500 and dropped, and the bytes held while waiting for the newline
// never exceed the cap.
func TestLineCapEndsSession(t *testing.T) {
	var events []Event
	srv := NewServer(Config{OnEvent: func(ev Event) { events = append(events, ev) }})
	probe := &tailProbe{inner: srv.NewStepper()}
	client := netsim.Converse(probe, netsim.MustParseIPv4("192.0.2.92"),
		netsim.Endpoint{IP: netsim.MustParseIPv4("10.0.0.7"), Port: 21}, time.Now())
	defer client.Close()

	c := NewClient(client)
	if _, err := c.ReadReply(); err != nil {
		t.Fatal(err)
	}
	// 1 MiB in 4 KiB writes, so the server sees the line grow event by event
	// and has a tail to hold. The server hangs up partway through; the write
	// error is expected.
	chunk := bytes.Repeat([]byte{'A'}, 4<<10)
	for sent := 0; sent < 1<<20; sent += len(chunk) {
		if _, err := client.Write(chunk); err != nil {
			break
		}
	}
	reply, err := c.ReadReply()
	if err != nil || !strings.HasPrefix(reply, "500") {
		t.Fatalf("reply to an endless line = %q, %v; want 500", reply, err)
	}
	if len(events) == 0 {
		t.Fatal("session did not end")
	}
	if len(events) != 1 || len(events[0].Commands) != 0 {
		t.Fatalf("events %+v, want one session record with no commands", events)
	}
	if probe.maxTail > netsim.MaxLine {
		t.Fatalf("retained tail %d bytes, cap %d", probe.maxTail, netsim.MaxLine)
	}
}
