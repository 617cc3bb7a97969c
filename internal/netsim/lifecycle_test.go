package netsim

// lifecycle_test.go pins the conversation engine's fault and teardown
// lifecycles. Each case's expected observables — bytes delivered, error
// identities, fault classification flags, and session completion — were
// recorded from a goroutine-driven pipe pair with the fault's byte budget on
// the server endpoint, the socket-like reference the engine was built to
// match. The engine must keep reproducing them.

import (
	"context"
	"io"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// bannerLineHandler writes a banner, then collects input to EOF and answers
// with one echo line, reporting the server-side observations for
// comparison. With hangUp it answers the first input with "bye" and ends the
// session itself. It is its own (single-session) stepper.
type bannerLineHandler struct {
	banner    []byte
	hangUp    bool
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
		if h.hangUp {
			_, h.writeErr = c.Write([]byte("bye\n"))
			break
		}
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

const lifecycleBanner = "220 welcome to the machine\r\n"

// lifecycleCase is one conversation: the server's banner and whether it
// hangs up after the first input, the fault plan of the dial, and the
// client's script — send a line (if any), close first (if set), read
// everything, then try one more write.
type lifecycleCase struct {
	banner     string
	hangUp     bool
	plan       FaultPlan
	send       string
	closeFirst bool
}

// lifecycleObs is what one conversation leaves behind on both sides.
type lifecycleObs struct {
	read      string // every byte the client read
	readErr   error  // io.ReadAll's verdict
	writeErr  error  // the client's write after the read
	truncated bool   // FaultTruncated
	reset     bool   // FaultReset
	serverGot string
	bannerErr error
	echoErr   error // the server's answer write
	served    bool
}

// checkLifecycle runs c on the engine and requires the pinned observables.
func checkLifecycle(t *testing.T, c lifecycleCase, want lifecycleObs) {
	t.Helper()
	h := &bannerLineHandler{banner: []byte(c.banner), hangUp: c.hangUp}
	n := singleHostNetwork(h, fixedPlanFaults{plan: c.plan}) // a zero plan is a perfect path
	conn, err := n.Dial(context.Background(), MustParseIPv4("192.0.2.1"),
		Endpoint{IP: MustParseIPv4("10.0.0.1"), Port: 7}, ProbeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if c.send != "" {
		if _, err := conn.Write([]byte(c.send)); err != nil {
			t.Fatal(err)
		}
	}
	if c.closeFirst {
		_ = conn.Close()
	}
	read, readErr := io.ReadAll(conn)
	_, writeErr := conn.Write([]byte("x"))
	_ = conn.Close()
	n.Quiesce()
	got := lifecycleObs{
		read: string(read), readErr: readErr, writeErr: writeErr,
		truncated: conn.FaultTruncated(), reset: conn.FaultReset(),
		serverGot: string(h.got), bannerErr: h.bannerErr, echoErr: h.writeErr,
		served: h.served.Load(),
	}
	if got != want {
		t.Fatalf("conversation left\n %+v\nwant\n %+v", got, want)
	}
}

// TestLifecycleTarpitEquivalence: a tarpit cut after 8 banner bytes
// delivers exactly that prefix and a clean EOF, classifies the conversation
// as truncated, and fails the server's banner write.
func TestLifecycleTarpitEquivalence(t *testing.T) {
	checkLifecycle(t, lifecycleCase{banner: lifecycleBanner, plan: FaultPlan{TruncateAfter: 8}},
		lifecycleObs{
			read: lifecycleBanner[:8], writeErr: io.ErrClosedPipe, truncated: true,
			bannerErr: io.ErrClosedPipe, served: true,
		})
}

// TestLifecycleMidStreamResetEquivalence: an injected RST mid-banner
// discards the bytes in flight, surfaces io.ErrClosedPipe to the client's
// read, and classifies the conversation as reset.
func TestLifecycleMidStreamResetEquivalence(t *testing.T) {
	checkLifecycle(t, lifecycleCase{banner: lifecycleBanner, plan: FaultPlan{ResetAfter: 8}},
		lifecycleObs{
			readErr: io.ErrClosedPipe, writeErr: io.ErrClosedPipe, reset: true,
			bannerErr: io.ErrClosedPipe, served: true,
		})
}

// TestLifecycleClientCloseBeforeServerWriteEquivalence: the client sends a
// line and closes before the server answers (empty banner: the handler goes
// straight to reading until EOF). The full line still reaches the server
// (FIN semantics: buffered data survives the close) and the server's late
// answer fails with io.ErrClosedPipe.
func TestLifecycleClientCloseBeforeServerWriteEquivalence(t *testing.T) {
	checkLifecycle(t, lifecycleCase{send: "hi\n", closeFirst: true},
		lifecycleObs{
			writeErr: io.ErrClosedPipe, serverGot: "hi\n", echoErr: io.ErrClosedPipe, served: true,
		})
}

// TestLifecycleHalfCloseEquivalence: the server answers the client's line
// and hangs up. The client still reads the banner and the answer, then a
// clean EOF, and its next write fails with io.ErrClosedPipe.
func TestLifecycleHalfCloseEquivalence(t *testing.T) {
	checkLifecycle(t, lifecycleCase{banner: lifecycleBanner, hangUp: true, send: "hi\n"},
		lifecycleObs{
			read: lifecycleBanner + "bye\n", writeErr: io.ErrClosedPipe,
			serverGot: "hi\n", served: true,
		})
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
