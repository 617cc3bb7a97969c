package netsim

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"slices"
	"sync"
	"testing"
	"time"
)

// echoHandler answers one line with "echo: <line>". The partial line lives
// in the ServerConv tail, so the stepper itself is stateless.
type echoHandler struct{}

func (h echoHandler) NewStepper() Stepper { return h }

func (echoHandler) Step(c *ServerConv, ev ConvEvent) StepVerdict {
	switch ev {
	case EvOpen:
		return StepMore
	case EvData:
		in := c.Input()
		nl := bytes.IndexByte(in, '\n')
		if nl < 0 {
			return StepMore
		}
		_, _ = c.Write(append([]byte("echo: "), in[:nl+1]...))
	}
	return StepDone
}

// testHost serves echo on TCP port 7 and ping on UDP port 9.
type testHost struct{}

func (testHost) StreamService(port uint16) StreamHandler {
	if port == 7 {
		return echoHandler{}
	}
	return nil
}

func (testHost) DatagramService(port uint16) DatagramHandler {
	if port == 9 {
		return DatagramHandlerFunc(func(_ Endpoint, payload []byte) []byte {
			return append([]byte("pong:"), payload...)
		})
	}
	return nil
}

func testNetwork() *Network {
	n := NewNetwork(NewSimClock(ExperimentStart))
	n.AddProvider(MustParsePrefix("10.0.0.0/8"), HostProviderFunc(func(ip IPv4) Host {
		if ip == MustParseIPv4("10.0.0.1") {
			return testHost{}
		}
		return nil
	}))
	return n
}

func TestDialAndEcho(t *testing.T) {
	n := testNetwork()
	conn, err := n.Dial(MustParseIPv4("192.0.2.1"),
		Endpoint{IP: MustParseIPv4("10.0.0.1"), Port: 7}, ProbeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "hello\n"); err != nil {
		t.Fatal(err)
	}
	line, err := bufio.NewReader(conn).ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	if line != "echo: hello\n" {
		t.Fatalf("got %q", line)
	}
}

func TestDialRefusedAndUnreachable(t *testing.T) {
	n := testNetwork()
	_, err := n.Dial(1, Endpoint{IP: MustParseIPv4("10.0.0.1"), Port: 23}, ProbeOptions{})
	if !errors.Is(err, ErrConnRefused) {
		t.Fatalf("closed port: err = %v, want ErrConnRefused", err)
	}
	_, err = n.Dial(1, Endpoint{IP: MustParseIPv4("10.9.9.9"), Port: 23}, ProbeOptions{})
	if !errors.Is(err, ErrHostUnreachable) {
		t.Fatalf("dark address: err = %v, want ErrHostUnreachable", err)
	}
	st := n.Stats()
	if st.Refused.Load() != 1 || st.Unreachable.Load() != 1 {
		t.Fatalf("stats refused=%d unreachable=%d", st.Refused.Load(), st.Unreachable.Load())
	}
}

func TestSynProbe(t *testing.T) {
	n := testNetwork()
	src := Endpoint{IP: 1, Port: 40000}
	if !n.SynProbe(src, Endpoint{IP: MustParseIPv4("10.0.0.1"), Port: 7}, ProbeOptions{}) {
		t.Fatal("SynProbe open port = false")
	}
	if n.SynProbe(src, Endpoint{IP: MustParseIPv4("10.0.0.1"), Port: 8}, ProbeOptions{}) {
		t.Fatal("SynProbe closed port = true")
	}
	if n.SynProbe(src, Endpoint{IP: MustParseIPv4("10.3.3.3"), Port: 7}, ProbeOptions{}) {
		t.Fatal("SynProbe dark address = true")
	}
}

func TestQuery(t *testing.T) {
	n := testNetwork()
	resp := n.Query(2, Endpoint{IP: MustParseIPv4("10.0.0.1"), Port: 9}, []byte("abc"), ProbeOptions{})
	if string(resp) != "pong:abc" {
		t.Fatalf("Query = %q", resp)
	}
	if resp := n.Query(2, Endpoint{IP: MustParseIPv4("10.0.0.1"), Port: 10}, []byte("abc"), ProbeOptions{}); resp != nil {
		t.Fatalf("closed UDP port answered: %q", resp)
	}
	if resp := n.Query(2, Endpoint{IP: MustParseIPv4("10.7.7.7"), Port: 9}, nil, ProbeOptions{}); resp != nil {
		t.Fatal("dark address answered UDP")
	}
	st := n.Stats()
	if st.Datagrams.Load() != 3 || st.Responses.Load() != 1 {
		t.Fatalf("stats datagrams=%d responses=%d", st.Datagrams.Load(), st.Responses.Load())
	}
}

func TestMostSpecificProviderWins(t *testing.T) {
	n := NewNetwork(NewSimClock(ExperimentStart))
	wide := HostProviderFunc(func(IPv4) Host { return testHost{} })
	narrow := HostProviderFunc(func(IPv4) Host { return nil }) // dark carve-out
	n.AddProvider(MustParsePrefix("10.0.0.0/8"), wide)
	n.AddProvider(MustParsePrefix("10.1.0.0/16"), narrow)

	// Narrow provider returns nil host, so lookup falls back to the wide one:
	// registration order does not shadow existence, specificity does when a
	// host is actually present.
	if h := n.lookupHost(MustParseIPv4("10.1.0.5")); h == nil {
		t.Fatal("expected fall-through to wide provider when narrow returns nil")
	}

	// When the narrow provider does return a host it must win.
	type namedHost struct {
		testHost
		name string
	}
	n2 := NewNetwork(NewSimClock(ExperimentStart))
	n2.AddProvider(MustParsePrefix("10.0.0.0/8"), HostProviderFunc(func(IPv4) Host { return namedHost{name: "wide"} }))
	n2.AddProvider(MustParsePrefix("10.1.0.0/16"), HostProviderFunc(func(IPv4) Host { return namedHost{name: "narrow"} }))
	h := n2.lookupHost(MustParseIPv4("10.1.0.5"))
	if h.(namedHost).name != "narrow" {
		t.Fatalf("got %q, want narrow", h.(namedHost).name)
	}
	h = n2.lookupHost(MustParseIPv4("10.2.0.5"))
	if h.(namedHost).name != "wide" {
		t.Fatalf("got %q, want wide", h.(namedHost).name)
	}
}

func TestDialTimeUsesSimClock(t *testing.T) {
	clk := NewSimClock(ExperimentStart)
	n := NewNetwork(clk)
	n.AddProvider(MustParsePrefix("10.0.0.0/8"), HostProviderFunc(func(IPv4) Host { return testHost{} }))
	if err := clk.Set(clk.Now().Add(48 * time.Hour)); err != nil {
		t.Fatal(err)
	}
	conn, err := n.Dial(1, Endpoint{IP: MustParseIPv4("10.0.0.1"), Port: 7}, ProbeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	want := ExperimentStart.Add(48 * time.Hour)
	if !conn.DialTime.Equal(want) {
		t.Fatalf("DialTime = %v, want %v", conn.DialTime, want)
	}
}

func TestEphemeralPortStableAndInRange(t *testing.T) {
	src := MustParseIPv4("192.0.2.7")
	dst := Endpoint{IP: MustParseIPv4("10.0.0.1"), Port: 23}
	p1 := ephemeralPort(src, dst)
	p2 := ephemeralPort(src, dst)
	if p1 != p2 {
		t.Fatal("ephemeral port not stable for same flow")
	}
	if p1 < 32768 {
		t.Fatalf("ephemeral port %d below range", p1)
	}
}

// stepFunc adapts a function to a Stepper.
type stepFunc func(c *ServerConv, ev ConvEvent) StepVerdict

func (f stepFunc) Step(c *ServerConv, ev ConvEvent) StepVerdict { return f(c, ev) }

// serverSaw is what the server side of a Converse conversation observed.
type serverSaw struct {
	events []ConvEvent
	remote IPv4
}

// TestConvConnContract pins the connection a client holds on the engine:
// the order in which Read reports what it finds, ErrWouldBlock at once on a
// quiescent stream, writes after the server is done, the client address the
// server sees, and an abort as the server sees it.
func TestConvConnContract(t *testing.T) {
	client := MustParseIPv4("1.1.1.1")
	server := Endpoint{IP: MustParseIPv4("2.2.2.2"), Port: 6}
	// sayData writes "data" on open, then ends the session or waits for input.
	sayData := func(then StepVerdict) func(*ServerConv, ConvEvent) StepVerdict {
		return func(c *ServerConv, ev ConvEvent) StepVerdict {
			if ev != EvOpen {
				return StepDone
			}
			_, _ = c.Write([]byte("data"))
			return then
		}
	}
	readData := func(t *testing.T, conn *ServiceConn) {
		t.Helper()
		buf := make([]byte, 16)
		if n, err := conn.Read(buf); err != nil || string(buf[:n]) != "data" {
			t.Fatalf("Read = %q, %v; want the buffered %q", buf[:n], err, "data")
		}
	}
	for _, c := range []struct {
		name   string
		server func(*ServerConv, ConvEvent) StepVerdict
		check  func(t *testing.T, conn *ServiceConn, saw *serverSaw)
	}{
		{"broken_before_buffered_data", sayData(StepMore), func(t *testing.T, conn *ServiceConn, _ *serverSaw) {
			cv := conn.cv
			cv.mu.Lock()
			cv.s2c.broken = true // torn down with "data" still queued
			cv.mu.Unlock()
			if n, err := conn.Read(make([]byte, 16)); n != 0 || !errors.Is(err, io.ErrClosedPipe) {
				t.Fatalf("Read = %d, %v; want 0, io.ErrClosedPipe", n, err)
			}
		}},
		{"buffered_data_then_EOF", sayData(StepDone), func(t *testing.T, conn *ServiceConn, _ *serverSaw) {
			readData(t, conn)
			for range 2 {
				if n, err := conn.Read(make([]byte, 16)); n != 0 || err != io.EOF {
					t.Fatalf("Read after the data = %d, %v; want 0, io.EOF", n, err)
				}
			}
		}},
		{"quiescent_read_returns_ErrWouldBlock_at_once", sayData(StepMore), func(t *testing.T, conn *ServiceConn, _ *serverSaw) {
			readData(t, conn)
			if n, err := conn.Read(make([]byte, 16)); n != 0 || err != ErrWouldBlock {
				t.Fatalf("Read on the quiescent stream = %d, %v; want 0, ErrWouldBlock", n, err)
			}
			// Still open: the client's next write reaches the server.
			if _, err := conn.Write([]byte("x")); err != nil {
				t.Fatalf("Write after ErrWouldBlock = %v", err)
			}
		}},
		{"write_after_server_done", sayData(StepDone), func(t *testing.T, conn *ServiceConn, _ *serverSaw) {
			if _, err := conn.Write([]byte("x")); !errors.Is(err, io.ErrClosedPipe) {
				t.Fatalf("Write after the server's StepDone = %v, want io.ErrClosedPipe", err)
			}
		}},
		{"addresses", sayData(StepMore), func(t *testing.T, conn *ServiceConn, saw *serverSaw) {
			if saw.remote != client {
				t.Fatalf("ServerConv.RemoteIP = %v, want %v", saw.remote, client)
			}
		}},
		{"abort_is_EvBroken_at_the_server", sayData(StepMore), func(t *testing.T, conn *ServiceConn, saw *serverSaw) {
			// An RST: both directions torn down with their buffers, then closed.
			cv := conn.cv
			cv.mu.Lock()
			cv.s2c.broken, cv.s2c.data, cv.s2c.off = true, nil, 0
			cv.c2s.broken, cv.c2s.data, cv.c2s.off = true, nil, 0
			cv.mu.Unlock()
			_ = conn.Close()
			if want := []ConvEvent{EvOpen, EvBroken}; !slices.Equal(saw.events, want) {
				t.Fatalf("server saw %v, want %v", saw.events, want)
			}
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			saw := &serverSaw{}
			s := stepFunc(func(sc *ServerConv, ev ConvEvent) StepVerdict {
				saw.events = append(saw.events, ev)
				if ev == EvOpen {
					saw.remote = sc.RemoteIP()
				}
				return c.server(sc, ev)
			})
			conn := Converse(s, client, server, ExperimentStart)
			defer conn.Close()
			c.check(t, conn, saw)
		})
	}
}

func TestSimClock(t *testing.T) {
	c := NewSimClock(ExperimentStart)
	if err := c.Set(c.Now().Add(time.Hour)); err != nil {
		t.Fatalf("Set forward returned %v", err)
	}
	if !c.Now().Equal(ExperimentStart.Add(time.Hour)) {
		t.Fatal("Set forward failed")
	}
	if err := c.Set(ExperimentStart); err != ErrClockBackwards {
		t.Fatalf("Set into the past returned %v, want ErrClockBackwards", err)
	}
	if !c.Now().Equal(ExperimentStart.Add(time.Hour)) {
		t.Fatal("rejected Set still moved the clock")
	}
	if err := c.Set(c.Now()); err != nil {
		t.Fatalf("Set to the current instant returned %v", err)
	}
	if err := c.Set(ExperimentStart.Add(2 * time.Hour)); err != nil {
		t.Fatalf("Set forward returned %v", err)
	}
	if !c.Now().Equal(ExperimentStart.Add(2 * time.Hour)) {
		t.Fatal("Set forward failed")
	}
}

// TestSimClockBackwardsRegression replays the exact pattern that used to skew
// campaign timelines silently: a driver computing per-day offsets can produce
// an instant before the current simulated time, and the old Set would rewind
// the clock without a trace. The clock must refuse and stay where it is.
func TestSimClockBackwardsRegression(t *testing.T) {
	c := NewSimClock(ExperimentStart)
	// Day 3 with a skewed offset lands before day 3's start after the clock
	// already reached day 5.
	_ = c.Set(ExperimentStart.AddDate(0, 0, 5))
	before := c.Now()
	if err := c.Set(ExperimentStart.AddDate(0, 0, 3).Add(42 * time.Minute)); err == nil {
		t.Fatal("backwards Set succeeded")
	}
	if !c.Now().Equal(before) {
		t.Fatalf("clock moved from %v to %v on a rejected Set", before, c.Now())
	}
	// Forward progress still works after a rejection.
	if err := c.Set(before.Add(time.Minute)); err != nil {
		t.Fatalf("forward Set after rejection returned %v", err)
	}
}

func TestConcurrentDials(t *testing.T) {
	n := testNetwork()
	var wg sync.WaitGroup
	for i := 0; i < 50; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			conn, err := n.Dial(IPv4(i+1),
				Endpoint{IP: MustParseIPv4("10.0.0.1"), Port: 7}, ProbeOptions{})
			if err != nil {
				t.Errorf("dial %d: %v", i, err)
				return
			}
			defer conn.Close()
			if _, err := io.WriteString(conn, "x\n"); err != nil {
				t.Errorf("write %d: %v", i, err)
				return
			}
			line, err := bufio.NewReader(conn).ReadString('\n')
			if err != nil || line != "echo: x\n" {
				t.Errorf("read %d: %q, %v", i, line, err)
			}
		}(i)
	}
	wg.Wait()
	if got := n.Stats().DialsOK.Load(); got != 50 {
		t.Fatalf("DialsOK = %d", got)
	}
}

func BenchmarkSynProbe(b *testing.B) {
	n := testNetwork()
	src := Endpoint{IP: 1, Port: 40000}
	dst := Endpoint{IP: MustParseIPv4("10.0.0.1"), Port: 7}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		n.SynProbe(src, dst, ProbeOptions{})
	}
}

func BenchmarkDialEcho(b *testing.B) {
	n := testNetwork()
	dst := Endpoint{IP: MustParseIPv4("10.0.0.1"), Port: 7}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		conn, err := n.Dial(1, dst, ProbeOptions{})
		if err != nil {
			b.Fatal(err)
		}
		_, _ = io.WriteString(conn, "x\n")
		_, _ = bufio.NewReader(conn).ReadString('\n')
		conn.Close()
	}
}
