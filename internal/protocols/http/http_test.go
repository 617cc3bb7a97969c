package http

import (
	"bufio"
	"bytes"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"openhire/internal/netsim"
)

func TestParseForm(t *testing.T) {
	form := ParseForm("username=admin&password=p%40ss+word&x")
	if form["username"] != "admin" {
		t.Fatalf("username %q", form["username"])
	}
	if form["password"] != "p@ss word" {
		t.Fatalf("password %q", form["password"])
	}
	if _, ok := form["x"]; ok {
		t.Fatal("valueless pair kept")
	}
}

func TestParseFormFuzzNoPanic(t *testing.T) {
	if err := quick.Check(func(s string) bool {
		_ = ParseForm(s)
		return true
	}, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func readRequest(raw string) (*Request, error) {
	return netsim.ReadFramed(strings.NewReader(raw), decodeRequest)
}

func TestRequestRoundTrip(t *testing.T) {
	raw := "POST /login HTTP/1.1\r\nHost: cam\r\ncontent-LENGTH : 9\r\n\r\nuser=a&b=c"
	req, err := readRequest(raw)
	if err != nil {
		t.Fatal(err)
	}
	if req.Method != "POST" || req.Path != "/login" || string(req.Body) != "user=a&b=" {
		t.Fatalf("req %+v body=%q", req, req.Body)
	}
	if req.Headers["host"] != "cam" || req.Headers["content-length"] != "9" {
		t.Fatalf("headers %v", req.Headers)
	}
}

func TestReadRequestErrors(t *testing.T) {
	for _, raw := range []string{
		"GARBAGE\r\n\r\n",
		"GET /\r\n\r\n", // missing proto
		"GET / HTTP/1.1\r\nContent-Length: -5\r\n\r\n",
		"GET / HTTP/1.1\r\nContent-Length: 99999999\r\n\r\n",
		"GET / HTTP/1.1\r\nContent-Length: 4\r\nContent-Length: x\r\n\r\nbody", // the last one counts
		"GET / HTTP/1.1\r\nX: " + strings.Repeat("a", netsim.MaxLine) + "\r\n\r\n",
		"GET / HTTP/1.1\r\n" + strings.Repeat("X: a\r\n", netsim.MaxLine/6) + "\r\n", // head over the cap
	} {
		if _, err := readRequest(raw); err == nil {
			t.Errorf("parsed %.40q", raw)
		}
	}
}

// TestDecodeRequestFraming: a malformed request line fails as soon as it
// ends, the head is the first blank line (bare LF too), and a body is
// exactly Content-Length bytes, the last such header winning.
func TestDecodeRequestFraming(t *testing.T) {
	for _, c := range []struct {
		raw  string
		n    int
		body string
		bad  bool
	}{
		{raw: "", n: 1},
		{raw: "GET / HTTP/1.1", n: 15},
		{raw: "GET /\r\n", bad: true},
		{raw: "GET / HTTP/1.1\r\nHost: x\r\n", n: 26},
		{raw: "GET / HTTP/1.1\r\n\r\nGET", n: 18},
		{raw: "GET / HTTP/1.1\n\n", n: 16},
		{raw: "POST / HTTP/1.1\r\nContent-Length: 5\r\n\r\nab", n: 43},
		{raw: "POST / HTTP/1.1\r\nContent-Length: 5\r\n\r\nabcdefg", n: 43, body: "abcde"},
		{raw: "POST / HTTP/1.1\r\nContent-Length: 5\r\nContent-Length:\r\n\r\nabc", n: 55},
	} {
		req, n, err := decodeRequest([]byte(c.raw))
		if (err != nil) != c.bad || n != c.n && !c.bad {
			t.Errorf("%q: n=%d err=%v, want n=%d bad=%v", c.raw, n, err, c.n, c.bad)
		}
		if req != nil && string(req.Body) != c.body {
			t.Errorf("%q: body %q, want %q", c.raw, req.Body, c.body)
		}
		if req == nil && n <= len(c.raw) && err == nil {
			t.Errorf("%q: n=%d within raw but no request", c.raw, n)
		}
	}
}

// TestDecodeRequestAllocatesNothingWhileIncomplete: a client that drips a
// request, or a flood of partial heads, costs the server no garbage.
func TestDecodeRequestAllocatesNothingWhileIncomplete(t *testing.T) {
	raw := []byte("POST /doLogin HTTP/1.1\r\nHost: target\r\nContent-Length: 29\r\n\r\nusername=admin&password=admin")
	allocs := testing.AllocsPerRun(20, func() {
		for k := range len(raw) {
			if req, _, err := decodeRequest(raw[:k]); req != nil || err != nil {
				t.Fatalf("prefix %d: %v, %v", k, req, err)
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("%v allocations per pass over the prefixes, want 0", allocs)
	}
}

func TestResponseRoundTrip(t *testing.T) {
	resp := &Response{Status: 200, Headers: map[string]string{"Content-Type": "text/html"},
		Body: []byte("<html/>")}
	var buf bytes.Buffer
	if err := resp.Write(&buf, "GoAhead-Webs"); err != nil {
		t.Fatal(err)
	}
	got, err := ReadResponse(bufio.NewReader(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if got.Status != 200 || string(got.Body) != "<html/>" {
		t.Fatalf("got %+v", got)
	}
	if got.Headers["server"] != "GoAhead-Webs" {
		t.Fatalf("server header %q", got.Headers["server"])
	}
}

func startServer(t *testing.T, cfg ServerConfig) *netsim.ServiceConn {
	t.Helper()
	client := netsim.Converse(NewServer(cfg).NewStepper(), netsim.MustParseIPv4("192.0.2.91"),
		netsim.Endpoint{IP: netsim.MustParseIPv4("10.0.0.6"), Port: 80}, time.Now())
	t.Cleanup(func() { client.Close() })
	return client
}

func deviceRoutes() map[string]Handler {
	get, post := LoginPage("NETGEAR Router", func(u, p string) bool { return false })
	return map[string]Handler{
		"/":        StaticPage("<html><title>NETGEAR Router</title></html>"),
		"/login":   get,
		"/doLogin": post,
	}
}

func TestServeStaticAndLogin(t *testing.T) {
	var events []Event
	client := startServer(t, ServerConfig{
		ServerHeader: "mini_httpd/1.30",
		Routes:       deviceRoutes(),
		LoginPath:    "/doLogin",
		OnEvent:      func(ev Event) { events = append(events, ev) },
	})
	resp, err := Get(client, "/")
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != 200 || !strings.Contains(string(resp.Body), "NETGEAR") {
		t.Fatalf("resp %d %q", resp.Status, resp.Body)
	}
	resp, err = Post(client, "/doLogin", map[string]string{"username": "admin", "password": "admin"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != 401 {
		t.Fatalf("login status %d", resp.Status)
	}
	found := false
	for _, ev := range events {
		if ev.Username == "admin" && ev.Password == "admin" && ev.Path == "/doLogin" {
			found = true
		}
	}
	if !found {
		t.Fatalf("credential event missing: %+v", events)
	}
}

func TestServe404(t *testing.T) {
	client := startServer(t, ServerConfig{Routes: deviceRoutes()})
	resp, err := Get(client, "/cgi-bin/../../etc/passwd")
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != 404 {
		t.Fatalf("status %d", resp.Status)
	}
}

func TestServeKeepAliveMultipleRequests(t *testing.T) {
	client := startServer(t, ServerConfig{Routes: deviceRoutes()})
	for i := 0; i < 5; i++ {
		resp, err := Get(client, "/")
		if err != nil || resp.Status != 200 {
			t.Fatalf("request %d: %v %v", i, resp, err)
		}
	}
}

func TestServeFloodGuard(t *testing.T) {
	client := startServer(t, ServerConfig{Routes: deviceRoutes(), MaxRequestsPerConn: 3})
	var failed bool
	for i := 0; i < 10; i++ {
		if _, err := Get(client, "/"); err != nil {
			failed = true
			break
		}
	}
	if !failed {
		t.Fatal("flood never hit the per-conn cap")
	}
}

func TestLoginPageAccept(t *testing.T) {
	_, post := LoginPage("X", func(u, p string) bool { return u == "admin" && p == "ok" })
	resp := post(&Request{Method: "POST", Body: []byte("username=admin&password=ok")})
	if resp.Status != 302 {
		t.Fatalf("status %d", resp.Status)
	}
}
