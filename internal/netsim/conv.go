package netsim

// conv.go is the execution core of the discrete-event conversation engine.
//
// A conversation is a client↔server dialogue over the simulated fabric. Both
// parties are deterministic simulations, so nothing is gained by running them
// concurrently: the engine executes the whole dialogue synchronously on the
// dialing goroutine. The server side is a Stepper (stepper.go) — a state
// machine fed one event at a time — driven in bursts: after the dial and
// after every client write or close it runs until it has consumed what it
// can of the pending input or finishes. Between bursts the client owns the
// conversation exclusively. There is no other way for a server to execute.
//
// The payoff is twofold. First, time: when the client reads with an empty
// buffer the server has already seen every byte sent, so no data can ever
// arrive within that read, and the read returns ErrWouldBlock at once; no
// conversation reads or waits on the wall clock. Second, churn: every piece
// of per-conversation state the engine owns — the two byte queues, the
// server's input buffer, the server party and its ServerConv — lives in a
// pooled conv that resets and recycles, so a dial costs no goroutine spawn,
// no channel and no buffer growth once the pool is warm.
//
// What a dial does allocate is the pair of ServiceConn handles (one object)
// and whatever the destination's StreamHandler builds for its Stepper. The
// handles stay per dial on purpose: client code and servers may hold one
// after the conversation ended — the MQTT broker's fanout writes to another
// session's Conn() after releasing its lock — and such a late call must
// find its own generation stamp, see the mismatch and go inert, rather than
// land in whatever conversation the recycled conv carries next.
//
// Byte-stream semantics are those of a TCP socket pair: reads drain buffered
// data before reporting EOF or ErrWouldBlock, broken pipes beat buffered data, a
// close half-closes both directions, and injected stream faults (tarpit
// truncation, mid-stream reset) trip on a server-write byte budget with a
// partial-write return. lifecycle_test.go pins each of these cases.

import (
	"errors"
	"io"
	"sync"
)

// convBufRetain caps the buffer capacity a pooled conversation keeps across
// recycles; a flood conversation's oversized slab is dropped for the GC
// rather than pinned forever.
const convBufRetain = 64 << 10

// convBuf is one direction of an engine conversation: an unbounded byte
// queue guarded by the owning conversation's mutex. It never blocks a writer
// — the reader always runs to quiescence before the writer resumes, so
// backpressure has no one to wake.
type convBuf struct {
	data   []byte
	off    int
	closed bool // write side closed: reads drain then report io.EOF
	broken bool // torn down: reads and writes fail immediately
}

func (b *convBuf) size() int { return len(b.data) - b.off }

// take appends all buffered bytes to dst and empties the queue. When dst is
// empty the two buffers trade places instead: the queue's bytes become dst
// without a copy, and the queue keeps dst's storage for the next writes.
func (b *convBuf) take(dst []byte) []byte {
	if len(dst) == 0 && b.off == 0 {
		dst, b.data = b.data, dst[:0]
		return dst
	}
	dst = append(dst, b.data[b.off:]...)
	b.data = b.data[:0]
	b.off = 0
	return dst
}

func (b *convBuf) write(p []byte) {
	b.data = append(b.data, p...)
}

func (b *convBuf) reset() {
	b.data = retain(b.data)
	b.off = 0
	b.closed = false
	b.broken = false
}

// retain empties a buffer for reuse, dropping it when it outgrew
// convBufRetain.
func retain(b []byte) []byte {
	if cap(b) > convBufRetain {
		return nil
	}
	return b[:0]
}

// conv is one pooled conversation: the two payload queues, the injected
// stream fault, and the server party. The mutex guards the queues and the
// endpoints' closed flags; it is held only inside individual I/O operations, so
// cross-conversation writers (an MQTT broker fanning a publish out to another
// session) never deadlock against a running party.
type conv struct {
	mu  sync.Mutex
	c2s convBuf // client → server payload
	s2c convBuf // server → client payload

	// gen is bumped when the conversation is released for reuse; endpoint
	// handles carry the generation they were dialed with and go inert on a
	// mismatch, so client code holding a closed connection can never touch a
	// recycled conversation.
	gen uint64

	n *Network

	// clientSC receives the fault flags when the stream fault trips.
	clientSC *ServiceConn

	// fault is the stream pathology applied to server writes: a byte budget
	// after which the stream is cut (tarpit) or torn down (reset).
	fault struct {
		active    bool
		reset     bool
		tripped   bool
		remaining int
	}

	// party is the server side (stepper.go). It recycles with the conv:
	// its ServerConv and input buffer are reset, never reallocated.
	party stepperParty
}

// runServer resumes the server party after a client action. One resume
// suffices: the party runs until it has consumed what it can of the input
// queue (which only the next client action can refill) or finishes.
func (cv *conv) runServer() {
	if p := &cv.party; p.s != nil && !p.done {
		p.resume(cv)
	}
}

// maybeRelease recycles the conversation once both sides are done with it:
// the client has closed and the server party has finished (a client close
// always ends in EvEOF or EvBroken, which are final).
func (cv *conv) maybeRelease() {
	if cv.party.s == nil || !cv.party.done {
		return
	}
	cv.mu.Lock()
	cv.gen++
	cv.c2s.reset()
	cv.s2c.reset()
	cv.party.reset()
	cv.clientSC = nil
	cv.fault.active = false
	cv.fault.reset = false
	cv.fault.tripped = false
	cv.fault.remaining = 0
	cv.mu.Unlock()
	convPool.Put(cv)
}

// convPool recycles the conversations of every dial: the scan leg's grabs,
// the campaign's attacks and the tests alike.
var convPool = sync.Pool{New: func() any { return &conv{} }}

// convPair holds both endpoints of one dial in a single allocation. They
// share a lifetime (per dial, never pooled), so one slab beats two mallocs on
// the hot path.
type convPair struct {
	client ServiceConn
	server ServiceConn
}

// convConn is one endpoint handle of an engine conversation. Handles are
// allocated per dial — never pooled — so a handle stays valid after the
// conversation object itself is recycled.
type convConn struct {
	cv     *conv
	gen    uint64
	client bool
	remote Endpoint // the peer's endpoint; ServerConv.RemoteIP reads it

	// closed is guarded by cv.mu: MQTT fanout writes arrive from other
	// conversations' goroutines.
	closed bool
}

// readBuf is the queue this endpoint reads from.
func (c *convConn) readBuf() *convBuf {
	if c.client {
		return &c.cv.s2c
	}
	return &c.cv.c2s
}

// writeBuf is the queue this endpoint writes to.
func (c *convConn) writeBuf() *convBuf {
	if c.client {
		return &c.cv.c2s
	}
	return &c.cv.s2c
}

// ErrWouldBlock is a client read's verdict on an open stream with nothing
// buffered. The server has already run to quiescence on every byte sent, so
// nothing can arrive until the client writes or closes: the read returns at
// once, where a socket read would sit out its timeout.
var ErrWouldBlock = errors.New("netsim: read would block: the peer awaits input")

// Read reports, in order: a broken pipe, then buffered data, then EOF, then
// ErrWouldBlock. It is ReadFramed's in-place read with a copy for a frame.
// The server endpoint is written, never read: its input reaches the Stepper
// through ServerConv.Input.
func (c *convConn) Read(p []byte) (int, error) {
	return readInPlace(c, func(raw []byte) (int, int, error) {
		if len(raw) == 0 {
			return 0, 1, nil
		}
		n := copy(p, raw)
		return n, n, nil
	})
}

func (c *convConn) Write(p []byte) (int, error) {
	cv := c.cv
	cv.mu.Lock()
	if c.gen != cv.gen {
		cv.mu.Unlock()
		return 0, io.ErrClosedPipe
	}
	if !c.client && cv.fault.active {
		return c.faultWriteLocked(p) // unlocks
	}
	n, err := c.writeLocked(p)
	cv.mu.Unlock()
	if err == nil && c.client {
		cv.runServer()
	}
	return n, err
}

// writeLocked appends to the outgoing queue; a torn-down or half-closed
// pipe fails.
func (c *convConn) writeLocked(p []byte) (int, error) {
	buf := c.writeBuf()
	if buf.broken || buf.closed {
		return 0, io.ErrClosedPipe
	}
	buf.write(p)
	return len(p), nil
}

// faultWriteLocked passes server-written bytes through until the fault's
// budget is spent, then trips the pathology. Called with cv.mu held; unlocks
// before returning.
func (c *convConn) faultWriteLocked(p []byte) (int, error) {
	cv := c.cv
	if cv.fault.tripped {
		cv.mu.Unlock()
		return 0, io.ErrClosedPipe
	}
	allow := len(p)
	trip := false
	if allow >= cv.fault.remaining {
		allow = cv.fault.remaining
		trip = true
		cv.fault.tripped = true
	}
	cv.fault.remaining -= allow
	var n int
	var err error
	if allow > 0 {
		n, err = c.writeLocked(p[:allow])
	}
	if !trip {
		cv.mu.Unlock()
		return n, err
	}
	sc := cv.clientSC
	if cv.fault.reset {
		// RST: both directions torn down, in-flight data discarded.
		cv.s2c.broken, cv.s2c.data, cv.s2c.off = true, nil, 0
		cv.c2s.broken, cv.c2s.data, cv.c2s.off = true, nil, 0
		cv.mu.Unlock()
		if sc != nil {
			sc.faultReset.Store(true)
		}
	} else {
		// Tarpit cut: the prefix already written stays readable, then EOF.
		cv.s2c.closed = true
		cv.mu.Unlock()
		if sc != nil {
			sc.faultTruncated.Store(true)
		}
	}
	return n, io.ErrClosedPipe
}

// Close half-closes both directions: the peer's pending data stays readable
// (FIN semantics) and its writes start failing. Closing the client side
// additionally runs the server party to completion — the conversation is
// fully processed and logged by the time Close returns — and recycles the
// conversation object.
func (c *convConn) Close() error {
	cv := c.cv
	cv.mu.Lock()
	if c.gen != cv.gen || c.closed {
		cv.mu.Unlock()
		return nil
	}
	c.closed = true
	c.writeBuf().closed = true
	c.readBuf().closed = true
	cv.mu.Unlock()
	if c.client {
		cv.runServer()
		cv.maybeRelease()
	}
	return nil
}
