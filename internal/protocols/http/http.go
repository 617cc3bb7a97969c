// Package http implements a minimal HTTP/1.1 server and client sufficient
// for the study's honeypot front-ends: static device pages, login forms
// (brute-force target), and flood observation.
//
// The stdlib net/http is built around real listeners; the simulation hands
// us in-memory byte streams, so a compact request/response codec is simpler
// and keeps the honeypot event hooks at wire level. HTTP is simulated by
// HosTaGe, Conpot and Dionaea in the paper (Section 5.1.6) and received
// web-scraping, brute-force, DoS floods and crypto-mining injection.
package http

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"time"
	"unicode"
	"unicode/utf8"

	"openhire/internal/netsim"
)

// Port is the default HTTP port.
const Port uint16 = 80

// Request is a parsed HTTP request.
type Request struct {
	Method  string
	Path    string
	Proto   string
	Headers map[string]string
	Body    []byte
}

// Response is an HTTP response under construction.
type Response struct {
	Status  int
	Headers map[string]string
	Body    []byte
}

// maxBodySize bounds request bodies.
const maxBodySize = 1 << 20

// decodeRequest is the one request parser, in the shape netsim.ReadFramed
// and the server stepper share: it returns the request at the head of raw
// and its length n, or — while raw is still short (n > len(raw)) — how many
// bytes it needs to get further. The head (request line and headers, blank
// line included) must fit in netsim.MaxLine bytes and the body in
// maxBodySize. A malformed request line fails as soon as it ends; nothing is
// allocated before the whole request is in raw. Body aliases raw.
func decodeRequest(raw []byte) (*Request, int, error) {
	head := raw[:min(len(raw), netsim.MaxLine)]
	var cl []byte // the last Content-Length value, as the Headers map keeps it
	off := 0
	for i := 0; ; i++ {
		line, n, err := netsim.Line(head[off:])
		if err == nil && off+n > len(head) {
			if len(head) < netsim.MaxLine {
				return nil, off + n, nil
			}
			err = netsim.ErrLineTooLong
		}
		if err != nil {
			return nil, 0, err
		}
		off += n
		if i == 0 {
			if fieldCount(line) != 3 {
				return nil, 0, fmt.Errorf("http: malformed request line %q", bytes.TrimSpace(line))
			}
			continue
		}
		h := bytes.TrimRight(line, "\r")
		if len(h) == 0 {
			break
		}
		// No rune outside ASCII folds onto a letter of "content-length", so
		// EqualFold here is ToLower-then-compare, as the map key is built.
		if k, v, ok := bytes.Cut(h, []byte(":")); ok && bytes.EqualFold(bytes.TrimSpace(k), []byte("content-length")) {
			cl = bytes.TrimSpace(v)
		}
	}
	n := off
	if len(cl) > 0 {
		size, err := strconv.Atoi(string(cl))
		if err != nil || size < 0 || size > maxBodySize {
			return nil, 0, fmt.Errorf("http: bad content-length %q", cl)
		}
		n += size
	}
	if len(raw) < n {
		return nil, n, nil
	}
	lines := strings.Split(string(raw[:off]), "\n")
	fields := strings.Fields(lines[0])
	req := &Request{Method: fields[0], Path: fields[1], Proto: fields[2],
		Headers: make(map[string]string), Body: raw[off:n]}
	for _, h := range lines[1:] {
		if k, v, ok := strings.Cut(strings.TrimRight(h, "\r"), ":"); ok {
			req.Headers[strings.ToLower(strings.TrimSpace(k))] = strings.TrimSpace(v)
		}
	}
	return req, n, nil
}

// fieldCount is len(strings.Fields(string(b))), without allocating.
func fieldCount(b []byte) int {
	n, inField := 0, false
	for len(b) > 0 {
		r, size := utf8.DecodeRune(b)
		b = b[size:]
		if unicode.IsSpace(r) {
			inField = false
		} else if !inField {
			inField, n = true, n+1
		}
	}
	return n
}

// statusText maps the codes the honeypots emit.
var statusText = map[int]string{
	200: "OK", 301: "Moved Permanently", 302: "Found", 401: "Unauthorized",
	403: "Forbidden", 404: "Not Found", 500: "Internal Server Error",
	503: "Service Unavailable",
}

// Write serializes the response to w.
func (resp *Response) Write(w io.Writer, serverHeader string) error {
	text := statusText[resp.Status]
	if text == "" {
		text = "Unknown"
	}
	scratch := netsim.GetScratch()
	b := (*scratch)[:0]
	b = append(b, "HTTP/1.1 "...)
	b = strconv.AppendInt(b, int64(resp.Status), 10)
	b = append(b, ' ')
	b = append(b, text...)
	b = append(b, "\r\n"...)
	if serverHeader != "" {
		b = append(b, "Server: "...)
		b = append(b, serverHeader...)
		b = append(b, "\r\n"...)
	}
	b = append(b, "Content-Length: "...)
	b = strconv.AppendInt(b, int64(len(resp.Body)), 10)
	b = append(b, "\r\n"...)
	if len(resp.Headers) > 0 {
		keys := make([]string, 0, len(resp.Headers))
		for k := range resp.Headers {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			b = append(b, k...)
			b = append(b, ": "...)
			b = append(b, resp.Headers[k]...)
			b = append(b, "\r\n"...)
		}
	}
	b = append(b, "\r\n"...)
	_, err := w.Write(b)
	*scratch = b[:0]
	netsim.PutScratch(scratch)
	if err != nil {
		return err
	}
	_, err = w.Write(resp.Body)
	return err
}

// Handler produces a response for a request.
type Handler func(req *Request) *Response

// Event logs one HTTP request for the honeypot.
type Event struct {
	Time     time.Time
	Remote   netsim.IPv4
	Method   string
	Path     string
	Username string // extracted from login form posts
	Password string
	BodySize int
}

// ServerConfig configures the HTTP endpoint.
type ServerConfig struct {
	// ServerHeader is the Server: banner ("lighttpd/1.4.35", "GoAhead-Webs").
	ServerHeader string
	// Routes maps exact paths to handlers. "/" should always exist.
	Routes map[string]Handler
	// LoginPath receives form posts; credentials are parsed into events.
	LoginPath string
	// OnEvent receives per-request observations.
	OnEvent func(Event)
	// MaxRequestsPerConn bounds keep-alive sessions (0 = 100). Floods hit
	// this and the connection drops, which the honeypot records upstream.
	MaxRequestsPerConn int
}

// Server implements netsim.StreamHandler.
type Server struct {
	cfg ServerConfig
}

// NewServer builds a Server.
func NewServer(cfg ServerConfig) *Server {
	if cfg.MaxRequestsPerConn == 0 {
		cfg.MaxRequestsPerConn = 100
	}
	return &Server{cfg: cfg}
}

// NewStepper implements netsim.StreamHandler: a fresh per-session state
// machine for the conversation engine.
func (s *Server) NewStepper() netsim.Stepper { return &serverStepper{s: s} }

// serverStepper is one keep-alive HTTP session: decodeRequest framing, and a
// dispatch whose response writes land at exactly the points the classic
// blocking loop wrote.
type serverStepper struct {
	s      *Server
	remote netsim.IPv4
	served int
}

// Step implements netsim.Stepper. A malformed request, EvEOF and EvBroken
// end the session where a blocking read loop would have errored out.
func (t *serverStepper) Step(c *netsim.ServerConv, ev netsim.ConvEvent) netsim.StepVerdict {
	switch ev {
	case netsim.EvOpen:
		t.remote = c.RemoteIP()
		if t.s.cfg.MaxRequestsPerConn <= 0 {
			return netsim.StepDone
		}
		return netsim.StepMore
	case netsim.EvData:
		v, _ := netsim.Frames(c, decodeRequest, t.dispatch)
		return v
	default:
		return netsim.StepDone
	}
}

// dispatch handles one fully parsed request: event, route, response write.
func (t *serverStepper) dispatch(c *netsim.ServerConv, req *Request) netsim.StepVerdict {
	s := t.s
	ev := Event{Time: c.DialTime(), Remote: t.remote, Method: req.Method,
		Path: req.Path, BodySize: len(req.Body)}
	if s.cfg.LoginPath != "" && req.Path == s.cfg.LoginPath && req.Method == "POST" {
		form := ParseForm(string(req.Body))
		ev.Username = form["username"]
		ev.Password = form["password"]
	}
	if s.cfg.OnEvent != nil {
		s.cfg.OnEvent(ev)
	}
	resp := s.route(req)
	if err := resp.Write(c, s.cfg.ServerHeader); err != nil {
		return netsim.StepDone
	}
	if strings.EqualFold(req.Headers["connection"], "close") {
		return netsim.StepDone
	}
	t.served++
	if t.served >= s.cfg.MaxRequestsPerConn {
		return netsim.StepDone
	}
	return netsim.StepMore
}

func (s *Server) route(req *Request) *Response {
	if h, ok := s.cfg.Routes[req.Path]; ok {
		return h(req)
	}
	return &Response{Status: 404, Body: []byte("<html><body><h1>404 Not Found</h1></body></html>")}
}

// ParseForm decodes an application/x-www-form-urlencoded body (sufficient
// subset: & separated key=value with %XX and + decoding).
func ParseForm(body string) map[string]string {
	out := make(map[string]string)
	for _, pair := range strings.Split(body, "&") {
		eq := strings.IndexByte(pair, '=')
		if eq < 0 {
			continue
		}
		out[unescape(pair[:eq])] = unescape(pair[eq+1:])
	}
	return out
}

func unescape(s string) string {
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		switch {
		case s[i] == '+':
			b.WriteByte(' ')
		case s[i] == '%' && i+2 < len(s):
			hi, ok1 := unhex(s[i+1])
			lo, ok2 := unhex(s[i+2])
			if ok1 && ok2 {
				b.WriteByte(hi<<4 | lo)
				i += 2
			} else {
				b.WriteByte(s[i])
			}
		default:
			b.WriteByte(s[i])
		}
	}
	return b.String()
}

func unhex(c byte) (byte, bool) {
	switch {
	case '0' <= c && c <= '9':
		return c - '0', true
	case 'a' <= c && c <= 'f':
		return c - 'a' + 10, true
	case 'A' <= c && c <= 'F':
		return c - 'A' + 10, true
	}
	return 0, false
}

// Get performs a GET over an established connection and returns the response.
func Get(conn io.ReadWriter, path string) (*Response, error) {
	return Do(conn, "GET", path, nil)
}

// Post performs a POST with a form body.
func Post(conn io.ReadWriter, path string, form map[string]string) (*Response, error) {
	pairs := make([]string, 0, len(form))
	keys := make([]string, 0, len(form))
	for k := range form {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		pairs = append(pairs, k+"="+form[k])
	}
	return Do(conn, "POST", path, []byte(strings.Join(pairs, "&")))
}

// Do performs one HTTP exchange.
func Do(conn io.ReadWriter, method, path string, body []byte) (*Response, error) {
	scratch := netsim.GetScratch()
	b := (*scratch)[:0]
	b = append(b, method...)
	b = append(b, ' ')
	b = append(b, path...)
	b = append(b, " HTTP/1.1\r\nHost: target\r\nContent-Length: "...)
	b = strconv.AppendInt(b, int64(len(body)), 10)
	b = append(b, "\r\n\r\n"...)
	_, err := conn.Write(b)
	*scratch = b
	netsim.PutScratch(scratch)
	if err != nil {
		return nil, err
	}
	if len(body) > 0 {
		if _, err := conn.Write(body); err != nil {
			return nil, err
		}
	}
	br := netsim.GetReader(conn)
	resp, err := ReadResponse(br)
	netsim.PutReader(br)
	return resp, err
}

// readLine returns one '\n'-terminated chunk as a transient slice into r's
// buffer, valid only until the next read. Lines longer than the buffer fall
// back to an allocated copy, preserving ReadString semantics.
func readLine(r *bufio.Reader) ([]byte, error) {
	line, err := r.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		buf := append([]byte(nil), line...)
		for err == bufio.ErrBufferFull {
			line, err = r.ReadSlice('\n')
			buf = append(buf, line...)
		}
		return buf, err
	}
	return line, err
}

// headerKeyIntern short-circuits the lowercase conversion for the header
// names the simulated servers actually emit, avoiding a per-header
// allocation on the client parse path.
var headerKeyIntern = map[string]string{
	"Server": "server", "server": "server",
	"Content-Length": "content-length", "content-length": "content-length",
	"Content-Type": "content-type", "content-type": "content-type",
	"Connection": "connection", "connection": "connection",
	"Location": "location", "location": "location",
	"WWW-Authenticate": "www-authenticate", "www-authenticate": "www-authenticate",
}

// canonHeaderKey lowercases a trimmed header name exactly as
// strings.ToLower(strings.TrimSpace(...)) did, interning common names.
func canonHeaderKey(b []byte) string {
	b = bytes.TrimSpace(b)
	if k, ok := headerKeyIntern[string(b)]; ok {
		return k
	}
	return strings.ToLower(string(b))
}

// ReadResponse parses one response.
func ReadResponse(r *bufio.Reader) (*Response, error) {
	line, err := readLine(r)
	if err != nil {
		return nil, err
	}
	fields := bytes.Fields(bytes.TrimSpace(line))
	if len(fields) < 2 || !bytes.HasPrefix(fields[0], []byte("HTTP/")) {
		return nil, fmt.Errorf("http: malformed status line %q", bytes.TrimSpace(line))
	}
	status, err := strconv.Atoi(string(fields[1]))
	if err != nil {
		return nil, err
	}
	resp := &Response{Status: status, Headers: make(map[string]string)}
	length := 0
	for {
		h, err := readLine(r)
		if err != nil {
			return nil, err
		}
		h = bytes.TrimRight(h, "\r\n")
		if len(h) == 0 {
			break
		}
		colon := bytes.IndexByte(h, ':')
		if colon < 0 {
			continue
		}
		key := canonHeaderKey(h[:colon])
		val := string(bytes.TrimSpace(h[colon+1:]))
		resp.Headers[key] = val
		if key == "content-length" {
			if length, err = strconv.Atoi(val); err != nil || length < 0 || length > maxBodySize {
				return nil, fmt.Errorf("http: bad content-length %q", val)
			}
		}
	}
	resp.Body = make([]byte, length)
	if _, err := io.ReadFull(r, resp.Body); err != nil {
		return nil, err
	}
	return resp, nil
}

// StaticPage builds a handler serving fixed HTML.
func StaticPage(html string) Handler {
	return func(*Request) *Response {
		return &Response{Status: 200,
			Headers: map[string]string{"Content-Type": "text/html"},
			Body:    []byte(html)}
	}
}

// LoginPage builds a device login form handler plus its POST target, which
// always rejects (honeypot behaviour) unless accept returns true.
func LoginPage(title string, accept func(user, pass string) bool) (get Handler, post Handler) {
	page := "<html><head><title>" + title + "</title></head><body>" +
		`<form method="POST"><input name="username"/><input type="password" name="password"/></form></body></html>`
	get = StaticPage(page)
	post = func(req *Request) *Response {
		form := ParseForm(string(req.Body))
		if accept != nil && accept(form["username"], form["password"]) {
			return &Response{Status: 302, Headers: map[string]string{"Location": "/index.html"}}
		}
		return &Response{Status: 401, Body: []byte("<html><body>Invalid credentials</body></html>")}
	}
	return get, post
}
