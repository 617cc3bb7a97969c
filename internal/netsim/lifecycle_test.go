package netsim

// lifecycle_test.go pins the conversation engine's fault and teardown
// lifecycles to the reference byte-stream implementation: the pipe pair in
// bufconn.go with a streamFault on the server endpoint and ServeStepper
// reading it from its own goroutine. Each edge case runs the SAME stepper
// on both drivers (stepperParty inline, ServeStepper over the pipe) and
// asserts the client- and server-side observables are identical: bytes
// delivered, error identities, fault classification flags, and session
// completion.

import (
	"context"
	"errors"
	"io"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// bannerLineHandler writes a banner, then collects input to EOF and answers
// with one echo line, reporting the server-side observations for
// comparison. It is its own (single-session) stepper.
type bannerLineHandler struct {
	banner    []byte
	bannerErr error
	got       []byte
	writeErr  error
	served    atomic.Bool
}

func (h *bannerLineHandler) NewStepper() Stepper { return h }

func (h *bannerLineHandler) Step(c *ServerConv, ev ConvEvent) StepVerdict {
	switch ev {
	case EvOpen:
		if _, err := c.Write(h.banner); err != nil {
			h.bannerErr = err
			break
		}
		return StepMore
	case EvData:
		h.got = append(h.got, c.Input()...)
		c.Consume(len(c.Input()))
		return StepMore
	case EvEOF:
		_, h.writeErr = c.Write([]byte("echo: OK\n"))
	}
	h.served.Store(true)
	return StepDone
}

// singleHostNetwork serves handler on 10.0.0.1:7 with the given fault model.
func singleHostNetwork(handler StreamHandler, fm FaultModel) *Network {
	n := NewNetwork(NewSimClock(ExperimentStart))
	n.AddProvider(MustParsePrefix("10.0.0.0/8"), HostProviderFunc(func(ip IPv4) Host {
		if ip == MustParseIPv4("10.0.0.1") {
			return fixedHost{handler: handler}
		}
		return nil
	}))
	if fm != nil {
		n.SetFaults(fm)
	}
	return n
}

type fixedHost struct{ handler StreamHandler }

func (h fixedHost) StreamService(port uint16) StreamHandler {
	if port == 7 {
		return h.handler
	}
	return nil
}
func (fixedHost) DatagramService(uint16) DatagramHandler { return nil }

// fixedPlanFaults returns the same FaultPlan for every probe.
type fixedPlanFaults struct{ plan FaultPlan }

func (f fixedPlanFaults) PlanProbe(IPv4, Endpoint, Transport, uint32, time.Time) FaultPlan {
	return f.plan
}

func (fixedPlanFaults) Blackholed(IPv4, IPv4) bool { return false }

// runPipeDial is the reference driver: pipe pair, streamFault on the server
// endpoint, ServeStepper on its own goroutine, framework close after it
// returns. It returns the client conn and a channel closed when the session
// (and its framework close) has finished.
func runPipeDial(handler StreamHandler, truncateAfter, resetAfter int) (*ServiceConn, chan struct{}) {
	cc, sc := NewConnPair(
		Endpoint{IP: MustParseIPv4("192.0.2.1"), Port: 40000},
		Endpoint{IP: MustParseIPv4("10.0.0.1"), Port: 7},
	)
	if truncateAfter > 0 || resetAfter > 0 {
		budget, reset := truncateAfter, false
		if resetAfter > 0 {
			budget, reset = resetAfter, true
		}
		sc.(*conn).sf = &streamFault{remaining: budget, reset: reset, peer: cc.(*conn)}
	}
	client := &ServiceConn{Conn: cc, DialTime: ExperimentStart}
	server := &ServiceConn{Conn: sc, DialTime: ExperimentStart}
	done := make(chan struct{})
	go func() {
		ServeStepper(context.Background(), server, handler.NewStepper())
		_ = server.Close()
		close(done)
	}()
	return client, done
}

// readAllWithDeadline drains the client side with a generous deadline so a
// blocked read can never hang the test.
func readAllWithDeadline(c *ServiceConn) ([]byte, error) {
	_ = c.SetReadDeadline(time.Now().Add(5 * time.Second))
	return io.ReadAll(c)
}

// TestLifecycleTarpitEquivalence: a tarpit cut after 8 banner bytes must
// deliver the identical prefix, clean EOF, and FaultTruncated classification
// on both the engine and the reference pipe driver.
func TestLifecycleTarpitEquivalence(t *testing.T) {
	banner := []byte("220 welcome to the machine\r\n")
	const cut = 8

	legacyH := &bannerLineHandler{banner: banner}
	legacyConn, done := runPipeDial(legacyH, cut, 0)
	<-done // fault trips during the banner write; wait so the read is deterministic
	legacyGot, legacyErr := readAllWithDeadline(legacyConn)
	_ = legacyConn.Close()

	engineH := &bannerLineHandler{banner: banner}
	n := singleHostNetwork(engineH, fixedPlanFaults{plan: FaultPlan{TruncateAfter: cut}})
	engineConn, err := n.Dial(context.Background(), MustParseIPv4("192.0.2.1"),
		Endpoint{IP: MustParseIPv4("10.0.0.1"), Port: 7}, ProbeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	engineGot, engineErr := readAllWithDeadline(engineConn)
	_ = engineConn.Close()
	n.Quiesce()

	if string(engineGot) != string(legacyGot) || string(engineGot) != string(banner[:cut]) {
		t.Fatalf("delivered prefix differs: engine %q, legacy %q, want %q",
			engineGot, legacyGot, banner[:cut])
	}
	if legacyErr != nil || engineErr != nil {
		t.Fatalf("tarpit cut must end in clean EOF: engine err %v, legacy err %v", engineErr, legacyErr)
	}
	for _, tc := range []struct {
		name string
		conn *ServiceConn
	}{{"engine", engineConn}, {"legacy", legacyConn}} {
		if !tc.conn.FaultTruncated() || tc.conn.FaultReset() {
			t.Fatalf("%s flags: truncated=%v reset=%v, want true/false",
				tc.name, tc.conn.FaultTruncated(), tc.conn.FaultReset())
		}
	}
	if !errors.Is(legacyH.bannerErr, io.ErrClosedPipe) || !errors.Is(engineH.bannerErr, io.ErrClosedPipe) {
		t.Fatalf("server write past the cut: engine err %v, legacy err %v, want ErrClosedPipe",
			engineH.bannerErr, legacyH.bannerErr)
	}
}

// TestLifecycleMidStreamResetEquivalence: an injected RST mid-banner must
// discard in-flight data, surface io.ErrClosedPipe to the client read, and
// set FaultReset on both paths.
func TestLifecycleMidStreamResetEquivalence(t *testing.T) {
	banner := []byte("220 welcome to the machine\r\n")
	const cut = 8

	legacyH := &bannerLineHandler{banner: banner}
	legacyConn, done := runPipeDial(legacyH, 0, cut)
	<-done
	_, legacyErr := readAllWithDeadline(legacyConn)
	_ = legacyConn.Close()

	engineH := &bannerLineHandler{banner: banner}
	n := singleHostNetwork(engineH, fixedPlanFaults{plan: FaultPlan{ResetAfter: cut}})
	engineConn, err := n.Dial(context.Background(), MustParseIPv4("192.0.2.1"),
		Endpoint{IP: MustParseIPv4("10.0.0.1"), Port: 7}, ProbeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	_, engineErr := readAllWithDeadline(engineConn)
	_ = engineConn.Close()
	n.Quiesce()

	if !errors.Is(legacyErr, io.ErrClosedPipe) || !errors.Is(engineErr, io.ErrClosedPipe) {
		t.Fatalf("reset read error: engine %v, legacy %v, want ErrClosedPipe", engineErr, legacyErr)
	}
	for _, tc := range []struct {
		name string
		conn *ServiceConn
	}{{"engine", engineConn}, {"legacy", legacyConn}} {
		if !tc.conn.FaultReset() || tc.conn.FaultTruncated() {
			t.Fatalf("%s flags: reset=%v truncated=%v, want true/false",
				tc.name, tc.conn.FaultReset(), tc.conn.FaultTruncated())
		}
	}
}

// TestLifecycleClientCloseBeforeServerWriteEquivalence: the client sends a
// line and closes before the server answers. Both paths must deliver the
// full line to the server (FIN semantics: buffered data survives the close)
// and fail the server's late write with io.ErrClosedPipe.
func TestLifecycleClientCloseBeforeServerWriteEquivalence(t *testing.T) {
	// Empty banner: the handler goes straight to reading until EOF, so the
	// client's close deterministically precedes the server's echo write.
	legacyH := &bannerLineHandler{}
	legacyConn, done := runPipeDial(legacyH, 0, 0)
	if _, err := legacyConn.Write([]byte("hi\n")); err != nil {
		t.Fatal(err)
	}
	_ = legacyConn.Close()
	<-done

	engineH := &bannerLineHandler{}
	n := singleHostNetwork(engineH, nil)
	engineConn, err := n.Dial(context.Background(), MustParseIPv4("192.0.2.1"),
		Endpoint{IP: MustParseIPv4("10.0.0.1"), Port: 7}, ProbeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := engineConn.Write([]byte("hi\n")); err != nil {
		t.Fatal(err)
	}
	_ = engineConn.Close()
	n.Quiesce()

	for _, tc := range []struct {
		name string
		h    *bannerLineHandler
	}{{"engine", engineH}, {"legacy", legacyH}} {
		if !tc.h.served.Load() {
			t.Fatalf("%s handler did not complete", tc.name)
		}
		if string(tc.h.got) != "hi\n" {
			t.Fatalf("%s server received %q, want %q", tc.name, tc.h.got, "hi\n")
		}
		if !errors.Is(tc.h.writeErr, io.ErrClosedPipe) {
			t.Fatalf("%s server write after client close: err %v, want ErrClosedPipe",
				tc.name, tc.h.writeErr)
		}
	}
}

// TestQuiesceRacingDialPanics pins the Quiesce misuse diagnostic: a Dial
// issued while Quiesce is waiting out in-flight handlers must panic loudly
// instead of landing its conversation tail past the boundary.
func TestQuiesceRacingDialPanics(t *testing.T) {
	h := &bannerLineHandler{banner: []byte("hello\n")}
	n := singleHostNetwork(h, nil)
	dst := Endpoint{IP: MustParseIPv4("10.0.0.1"), Port: 7}

	// Park a handler in flight (it reads until the client closes), so
	// Quiesce blocks with the quiescing flag raised.
	conn, err := n.Dial(context.Background(), MustParseIPv4("192.0.2.1"), dst, ProbeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	quiesced := make(chan struct{})
	go func() {
		n.Quiesce()
		close(quiesced)
	}()
	for !n.quiescing.Load() {
		runtime.Gosched()
	}

	recovered := func() (r any) {
		defer func() { r = recover() }()
		_, _ = n.Dial(context.Background(), MustParseIPv4("192.0.2.2"), dst, ProbeOptions{})
		return nil
	}()
	if recovered == nil {
		t.Fatal("Dial racing Quiesce did not panic")
	}

	_ = conn.Close()
	<-quiesced
}
