package ftp

import (
	"bytes"
	"io"
	"reflect"
	"strings"
	"testing"

	"openhire/internal/netsim"
)

// fuzzConfig is the endpoint FuzzDecodeSession drives: anonymous and
// credential logins, STOR, and an upload cap small enough to cross.
var fuzzConfig = Config{
	AllowAnonymous: true,
	Credentials:    map[string]string{"admin": "1234"},
	AllowWrite:     true,
	Files:          map[string][]byte{"readme.txt": []byte("hi")},
	MaxUploadBytes: 256,
}

// FuzzDecodeSession holds the control channel's decoder — command lines, and
// a STOR's inline upload bytes — to what the honeypot needs from it on
// attacker bytes: it never panics, the server fed the bytes one at a time
// answers and logs exactly what it does when the whole slice arrives in one
// write, and what it logs stays inside its caps. The seeds are the sessions
// Client sends.
func FuzzDecodeSession(f *testing.F) {
	anonymous := clientSession(func(c *Client) {
		if ok, _ := c.Login("anonymous", "bot@"); ok {
			_, _ = c.Store("mozi.m", []byte("\x7fELF\x01\x01\x01\x00 dropper\n"))
		}
	})
	for _, raw := range [][]byte{
		anonymous,
		clientSession(func(c *Client) { _, _ = c.Login("admin", "1234") }),
		clientSession(func(c *Client) { _, _ = c.Login("root", "xc3511") }),
		clientSession(func(c *Client) { _, _ = c.Store("x", nil) }), // STOR before login
		anonymous[:len(anonymous)-10],                               // cut mid-upload
	} {
		f.Add(raw)
	}
	f.Add([]byte{})
	f.Add([]byte("USER anonymous\r\nPASS x\r\nLIST\r\nSYST\r\nPWD\r\nNLST\r\n"))
	f.Add([]byte("USER anonymous\r\nPASS x\r\nSTOR a\r\n-1\r\n"))
	f.Add([]byte("USER anonymous\r\nPASS x\r\nSTOR a\r\n257\r\n")) // over the cap
	f.Add([]byte("USER anonymous\r\nPASS x\r\nSTOR a\r\n0\r\nQUIT\r\n"))
	f.Add([]byte("USER anonymous\nPASS x\nSTOR a\n3\nab\ncd\n")) // a newline inside the upload
	f.Add(bytes.Repeat([]byte{'A'}, netsim.MaxLine+1))
	f.Add([]byte("GET / HTTP/1.1\r\n\r\n")) // cross-protocol probe

	f.Fuzz(func(t *testing.T, raw []byte) {
		out, ev := replaySession(raw, len(raw))
		bout, bev := replaySession(raw, 1)
		if !bytes.Equal(bout, out) {
			t.Fatalf("byte at a time the server answers %q, whole %q", bout, out)
		}
		if !reflect.DeepEqual(bev, ev) {
			t.Fatalf("byte at a time the server logs %+v, whole %+v", bev, ev)
		}
		if len(ev.Commands) > 128 {
			t.Fatalf("%d commands logged, cap 128", len(ev.Commands))
		}
		for _, cmd := range ev.Commands {
			if cmd == "" || strings.ContainsRune(cmd, '\n') || len(cmd) >= netsim.MaxLine {
				t.Fatalf("logged command %q is not one line", cmd)
			}
		}
		for _, up := range ev.Uploads {
			if len(up.Data) > fuzzConfig.MaxUploadBytes {
				t.Fatalf("upload %q of %d bytes, cap %d", up.Name, len(up.Data), fuzzConfig.MaxUploadBytes)
			}
		}
	})
}

// recorder keeps a copy of everything written through it.
type recorder struct {
	io.ReadWriteCloser
	sent *bytes.Buffer
}

func (r recorder) Write(p []byte) (int, error) {
	r.sent.Write(p)
	return r.ReadWriteCloser.Write(p)
}

// clientSession runs session on a Client against the fuzz endpoint, after
// the banner and before Quit, and returns every byte the client sent.
func clientSession(session func(*Client)) []byte {
	var sent bytes.Buffer
	c := NewClient(recorder{dialFuzz(&Event{}), &sent})
	if _, err := c.ReadReply(); err == nil {
		session(c)
	}
	c.Quit()
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
	drain() // the banner
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
	return netsim.Converse(NewServer(cfg).NewStepper(), netsim.MustParseIPv4("192.0.2.21"),
		netsim.Endpoint{IP: netsim.MustParseIPv4("10.0.0.21"), Port: Port}, netsim.ExperimentStart)
}
