package telnet

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"openhire/internal/netsim"
)

func TestSplitStreamPlainData(t *testing.T) {
	data, cmds := SplitStream([]byte("hello"))
	if string(data) != "hello" || len(cmds) != 0 {
		t.Fatalf("got %q, %v", data, cmds)
	}
}

func TestSplitStreamNegotiation(t *testing.T) {
	raw := []byte{IAC, WILL, OptEcho, 'h', 'i', IAC, DO, OptNAWS}
	data, cmds := SplitStream(raw)
	if string(data) != "hi" {
		t.Fatalf("data = %q", data)
	}
	if len(cmds) != 2 || cmds[0] != (Command{WILL, OptEcho}) || cmds[1] != (Command{DO, OptNAWS}) {
		t.Fatalf("cmds = %v", cmds)
	}
}

func TestSplitStreamEscapedIAC(t *testing.T) {
	data, _ := SplitStream([]byte{'a', IAC, IAC, 'b'})
	if !bytes.Equal(data, []byte{'a', IAC, 'b'}) {
		t.Fatalf("data = %v", data)
	}
}

func TestSplitStreamSubnegotiation(t *testing.T) {
	raw := []byte{IAC, SB, OptTerminalType, 1, IAC, SE, 'x'}
	data, cmds := SplitStream(raw)
	if string(data) != "x" || len(cmds) != 0 {
		t.Fatalf("data=%q cmds=%v", data, cmds)
	}
}

func TestSplitStreamTruncated(t *testing.T) {
	// Incomplete sequences must not panic and must keep prior data.
	for _, raw := range [][]byte{
		{IAC},
		{'a', IAC, DO},
		{IAC, SB, OptNAWS, 0, 0}, // unterminated subnegotiation
	} {
		data, _ := SplitStream(raw)
		_ = data // no panic is the requirement
	}
}

func TestEscapeRoundTrip(t *testing.T) {
	if err := quick.Check(func(p []byte) bool {
		data, _ := SplitStream(EscapeData(p))
		return bytes.Equal(data, p)
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRefuseAll(t *testing.T) {
	reply := RefuseAll([]Command{{DO, OptEcho}, {WILL, OptSuppressGoAhead}, {DONT, OptNAWS}})
	want := []byte{IAC, WONT, OptEcho, IAC, DONT, OptSuppressGoAhead}
	if !bytes.Equal(reply, want) {
		t.Fatalf("reply = %v, want %v", reply, want)
	}
}

// startServer dials a telnet server and returns the client side.
func startServer(t *testing.T, cfg Config) *netsim.ServiceConn {
	t.Helper()
	return netsim.Converse(NewServer(cfg).NewStepper(), netsim.MustParseIPv4("192.0.2.1"),
		netsim.Endpoint{IP: netsim.MustParseIPv4("10.0.0.1"), Port: 23}, time.Now())
}

func TestGrabUnauthedBanner(t *testing.T) {
	client := startServer(t, Config{
		Auth:        AuthNoneRoot,
		ShellPrompt: "root@dvr:~$ ",
	})
	defer client.Close()
	b, err := Grab(context.Background(), client)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.Text, "root@dvr:~$") {
		t.Fatalf("banner %q missing root prompt", b.Text)
	}
}

func TestGrabNegotiationBytesPreserved(t *testing.T) {
	client := startServer(t, Config{
		Auth:             AuthLogin,
		NegotiateOptions: true,
		LoginPrompt:      "login: ",
	})
	defer client.Close()
	b, err := Grab(context.Background(), client)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(b.Raw, []byte{IAC, WILL, OptEcho}) {
		t.Fatalf("raw banner %v missing negotiation prefix", b.Raw[:minInt(6, len(b.Raw))])
	}
	if !strings.Contains(b.Text, "login:") {
		t.Fatalf("text %q missing login prompt", b.Text)
	}
	if len(b.Commands) == 0 {
		t.Fatal("no negotiation commands parsed")
	}
}

func TestGrabRawNegotiationProfile(t *testing.T) {
	// Cowrie's published fingerprint: \xff\xfd\x1f then login: (Table 6).
	client := startServer(t, Config{
		Auth:           AuthLogin,
		RawNegotiation: []byte{IAC, DO, OptNAWS},
		LoginPrompt:    "login: ",
	})
	defer client.Close()
	b, err := Grab(context.Background(), client)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(b.Raw, []byte{0xff, 0xfd, 0x1f}) {
		t.Fatalf("raw = %v", b.Raw)
	}
}

func TestLoginSuccess(t *testing.T) {
	var events []Event
	client := startServer(t, Config{
		Auth:        AuthLogin,
		Username:    "admin",
		Password:    "admin",
		ShellPrompt: "$ ",
		OnEvent:     func(ev Event) { events = append(events, ev) },
	})
	ok, err := Login(context.Background(), client, "admin", "admin")
	if err != nil || !ok {
		t.Fatalf("Login = %v, %v", ok, err)
	}
	out, err := Exec(client, "cat /proc/cpuinfo")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "not found") {
		t.Fatalf("unknown command output %q", out)
	}
	client.Close()
	if len(events) == 0 {
		t.Fatal("no session record after the client closed")
	}
	got := events[0]
	if !got.LoginOK || got.Username != "admin" || got.Password != "admin" {
		t.Fatalf("event = %+v", got)
	}
	if len(got.Commands) != 1 || got.Commands[0] != "cat /proc/cpuinfo" {
		t.Fatalf("commands = %v", got.Commands)
	}
}

func TestLoginFailure(t *testing.T) {
	client := startServer(t, Config{
		Auth:     AuthLogin,
		Username: "admin",
		Password: "secret",
	})
	defer client.Close()
	ok, err := Login(context.Background(), client, "admin", "wrong")
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("wrong password accepted")
	}
}

func TestLoginAttemptsBounded(t *testing.T) {
	var events []Event
	client := startServer(t, Config{
		Auth:             AuthLogin,
		MaxLoginAttempts: 2,
		OnEvent:          func(ev Event) { events = append(events, ev) },
	})
	defer client.Close()
	// Two failed attempts, written proactively: the server consumes
	// username/password pairs in order regardless of prompt pacing.
	if _, err := client.Write([]byte("a\r\nb\r\na\r\nb\r\n")); err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("server did not close after max attempts")
	}
	if events[0].LoginOK {
		t.Fatal("empty credential map accepted a login")
	}
}

func TestCommandOutput(t *testing.T) {
	client := startServer(t, Config{
		Auth:          AuthNone,
		CommandOutput: map[string]string{"uname -a": "Linux dvr 3.10.0 armv7l"},
	})
	defer client.Close()
	if _, err := Grab(context.Background(), client); err != nil {
		t.Fatal(err)
	}
	out, err := Exec(client, "uname -a")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Linux dvr") {
		t.Fatalf("output %q", out)
	}
}

func TestExitClosesSession(t *testing.T) {
	client := startServer(t, Config{Auth: AuthNone})
	defer client.Close()
	_, _ = Grab(context.Background(), client)
	_, _ = Exec(client, "exit")
	buf := make([]byte, 64)
	for {
		if _, err := client.Read(buf); err != nil {
			return // EOF, or nothing more to read: session ended
		}
	}
}

func TestHostnameExpansion(t *testing.T) {
	client := startServer(t, Config{
		Auth:           AuthLogin,
		PreLoginBanner: "Welcome to %h\r\n",
		Hostname:       "DCS-6620",
	})
	defer client.Close()
	b, _ := Grab(context.Background(), client)
	if !strings.Contains(b.Text, "Welcome to DCS-6620") {
		t.Fatalf("banner %q", b.Text)
	}
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// stallingStepper is a server that is slow on the wall clock: it sends one
// negotiation on open, spends 30 ms before answering each of the client's
// three refusals (two more negotiations, then the login prompt), as a
// descheduled server would.
type stallingStepper struct{ answers int }

func (s *stallingStepper) Step(c *netsim.ServerConv, ev netsim.ConvEvent) netsim.StepVerdict {
	switch ev {
	case netsim.EvOpen:
		_, _ = c.Write(Negotiate(DO, OptTerminalType))
	case netsim.EvData:
		c.Consume(len(c.Input()))
		time.Sleep(30 * time.Millisecond)
		if s.answers++; s.answers < 3 {
			_, _ = c.Write(Negotiate(DO, OptNAWS))
		} else {
			_, _ = c.Write([]byte("login: "))
		}
	default:
		return netsim.StepDone
	}
	return netsim.StepMore
}

// TestGrabIgnoresWallClockStalls: a grab is a function of the conversation,
// not of how long the server took in real time. A server that stalls 90 ms
// across its negotiation still yields its login prompt.
func TestGrabIgnoresWallClockStalls(t *testing.T) {
	conn := netsim.Converse(&stallingStepper{}, netsim.MustParseIPv4("192.0.2.1"),
		netsim.Endpoint{IP: netsim.MustParseIPv4("10.0.0.1"), Port: 23}, netsim.ExperimentStart)
	defer conn.Close()
	b, err := Grab(context.Background(), conn)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(b.Text, "login: ") {
		t.Fatalf("banner text %q, want it to end in the login prompt", b.Text)
	}
	if len(b.Commands) != 3 {
		t.Fatalf("%d negotiation commands, want 3", len(b.Commands))
	}
}
