package netsim

// stepper.go defines the one execution model a conversation server has: a
// Stepper, a non-blocking state machine fed discrete events — the dial, each
// batch of client bytes, the client's half-close, a torn pipe. Network.Dial
// runs it inline on the dialing goroutine (stepperParty): a method call per
// client action, no goroutine, no channel. Nothing else runs one: tests
// run a stepper through Converse, which is that same dial on a one-host
// network.
//
// Writing a stepper:
//
//   - EvOpen: record DialTime/RemoteIP, write the banner if the protocol has
//     one. EvEOF and EvBroken are final: emit the session record and return.
//   - Write the protocol's decoder once, over a byte slice: it returns the
//     frame at the head of raw and its length n, or — while raw is still
//     short (n > len(raw)) — how many bytes it needs to say more, without
//     allocating. Line-oriented protocols use Line.
//   - EvData is one call: Frames(c, decode, handle). It pulls each complete
//     frame off ServerConv.Input, consumes exactly its bytes and hands it to
//     handle, and leaves an incomplete head in Input for the next event, so
//     where the client's writes fall must not change the output (the
//     chunking-invariance test in internal/honeypot pins this for every
//     server). Blocking clients (probes, attack actors) read the same
//     decoder with ReadFramed, in place over the conversation's queue, so
//     no protocol has a second parser. While raw is short a decoder may
//     hand out the head so far, which a client keeps when the stream ends
//     there. State that outlives a frame lives in the stepper's fields; a
//     decoder may read it (which stage of the dialogue the next frame
//     belongs to).
//   - A frame aliases Input, a buffer the engine reuses after Step returns:
//     copy any bytes the session record keeps.
//   - Bound the tail. The decoder must reject a frame longer than the
//     protocol's cap as soon as the length is known (Line: MaxLine), which
//     ends the session; otherwise a peer that never completes a frame grows
//     the conversation without limit.
//   - handle returns StepDone at the points a blocking loop would return:
//     protocol end, a session cap, or a failed Write (a tripped stream
//     fault). The framework closes the server side.

import (
	"bytes"
	"errors"
	"io"
	"slices"
	"time"
)

// ConvEvent is one input event delivered to a Stepper.
type ConvEvent uint8

// Conversation events, in lifecycle order.
const (
	// EvOpen fires once, immediately after the dial completes. Banners and
	// negotiation bytes are written here.
	EvOpen ConvEvent = iota
	// EvData fires when client bytes are available. The stepper consumes as
	// much of ServerConv.Input as it can parse and leaves any partial tail.
	EvData
	// EvEOF fires when the client has closed its write side and every
	// delivered byte has been offered; no more input will ever arrive.
	// Input may still hold an unparseable partial tail.
	EvEOF
	// EvBroken fires when the transport was torn down (mid-stream reset);
	// pending input was discarded.
	EvBroken
)

// StepVerdict is a Stepper's report after handling one event.
type StepVerdict uint8

// Step verdicts.
const (
	// StepMore: the conversation continues; deliver further events.
	StepMore StepVerdict = iota
	// StepDone: the session is over (handler returned, in blocking terms).
	// The framework closes the server side of the conversation.
	StepDone
)

// Stepper is a resumable conversation server: Step is called once per
// ConvEvent and must never block. After returning StepDone (or after EvEOF /
// EvBroken, which are always final) Step is not called again.
type Stepper interface {
	Step(c *ServerConv, ev ConvEvent) StepVerdict
}

// ServerConv is the server's view of one engine conversation: the pending
// input bytes and the write/metadata surface of the underlying connection.
// It recycles with the conversation, so a Stepper must not keep it past
// Step; Conn is the handle that stays valid (and goes inert) afterwards.
type ServerConv struct {
	sc  *ServiceConn
	in  []byte
	off int
}

// Input returns the bytes received from the client and not yet consumed.
func (c *ServerConv) Input() []byte { return c.in[c.off:] }

// Consume marks the first n bytes of Input as processed.
func (c *ServerConv) Consume(n int) {
	c.off += n
	if c.off >= len(c.in) {
		c.in = c.in[:0]
		c.off = 0
	}
}

func (c *ServerConv) avail() int { return len(c.in) - c.off }

// Write sends bytes to the client, subject to the conversation's injected
// stream fault — a tripped tarpit or reset surfaces here as io.ErrClosedPipe.
func (c *ServerConv) Write(p []byte) (int, error) { return c.sc.Write(p) }

// Conn exposes the underlying connection for metadata (DialTime, RTT).
func (c *ServerConv) Conn() *ServiceConn { return c.sc }

// DialTime is the simulated time the conversation was dialed.
func (c *ServerConv) DialTime() time.Time { return c.sc.DialTime }

// RemoteIP reports the client's simulated address.
func (c *ServerConv) RemoteIP() IPv4 { return c.sc.remote.IP }

// stepperParty drives a Stepper as the server side of an engine
// conversation. It is a field of the pooled conv, so it and its ServerConv
// recycle with the conversation. All fields are touched only by the
// conversation's driving goroutine.
type stepperParty struct {
	s      Stepper // nil while the conv is pooled
	sc     ServerConv
	opened bool
	done   bool
}

// start arms the party for one dial: s serves the server endpoint sconn.
func (p *stepperParty) start(s Stepper, sconn *ServiceConn) {
	p.s = s
	p.sc.sc = sconn
}

// reset returns the party to its pooled state, keeping the input buffer's
// storage up to convBufRetain.
func (p *stepperParty) reset() {
	p.s = nil
	p.sc = ServerConv{in: retain(p.sc.in)}
	p.opened, p.done = false, false
}

// resume delivers every event implied by the conversation's current state:
// the one-time open, pending client bytes, then EOF or a torn pipe. Exactly
// one client action precedes each resume, so a single EvData pass sees all
// pending input.
func (p *stepperParty) resume(cv *conv) {
	if p.done {
		return
	}
	sc := &p.sc
	if !p.opened {
		p.opened = true
		if p.s.Step(sc, EvOpen) == StepDone {
			p.finish(cv)
			return
		}
	}
	cv.mu.Lock()
	sc.in = cv.c2s.take(sc.in)
	broken := cv.c2s.broken
	closed := cv.c2s.closed
	cv.mu.Unlock()
	if broken {
		p.s.Step(sc, EvBroken)
		p.finish(cv)
		return
	}
	if sc.avail() > 0 {
		if p.s.Step(sc, EvData) == StepDone {
			p.finish(cv)
			return
		}
	}
	if closed {
		p.s.Step(sc, EvEOF)
		p.finish(cv)
	}
}

// finish is the framework close: the server side shuts and the network
// counts the conversation finished.
func (p *stepperParty) finish(cv *conv) {
	p.done = true
	_ = p.sc.sc.Close()
	cv.n.stats.Finished.Add(1)
}

// ReadFramed is the blocking reader over a slice decoder: it reads exactly
// one frame from r and never a byte of the next. decode examines the bytes
// read so far and returns the frame and its length n once raw holds all of
// it (n <= len(raw)); otherwise n is how many bytes it needs before it can
// say more (n > len(raw)). Steppers run the same decode through Frames, so
// the framing rules live in one place. A reader other than a conversation
// is read just far enough for each decode.
func ReadFramed[T any](r io.Reader, decode func(raw []byte) (T, int, error)) (T, error) {
	if c, ok := r.(*ServiceConn); ok {
		return readInPlace(&c.convConn, decode)
	}
	var raw []byte
	for {
		v, n, err := decode(raw)
		if err != nil || n <= len(raw) {
			return v, err
		}
		have := len(raw)
		raw = slices.Grow(raw, n-have)[:n]
		if _, err := io.ReadFull(r, raw[have:]); err != nil {
			return v, err
		}
	}
}

// readInPlace is ReadFramed on a conversation: one decode, under the lock,
// over everything the peer sent and this endpoint has not read, consuming
// exactly the frame, which is valid until the endpoint's next read or write.
// The server has already run to quiescence, so a short head is all there
// is: it is consumed and handed back as decode made it (a decoder may hand
// out the head so far) with ErrWouldBlock on an open stream,
// io.ErrUnexpectedEOF on an ended one, or io.EOF when nothing was left. A
// decode error consumes nothing.
func readInPlace[T any](c *convConn, decode func(raw []byte) (T, int, error)) (v T, err error) {
	cv := c.cv
	cv.mu.Lock()
	defer cv.mu.Unlock()
	if c.gen != cv.gen {
		return v, io.EOF
	}
	buf := c.readBuf()
	if buf.broken {
		return v, io.ErrClosedPipe
	}
	if buf.size() == 0 {
		// Consuming leaves the storage alone, for the frame handed out
		// aliases it (and a peer's write only appends); this read releases
		// that frame, so the storage is reused from here.
		buf.data, buf.off = buf.data[:0], 0
	}
	raw := buf.data[buf.off:]
	v, n, err := decode(raw)
	switch {
	case err != nil:
		return v, err
	case n <= len(raw):
		buf.off += n
		return v, nil
	}
	buf.off = len(buf.data)
	switch {
	case !buf.closed:
		return v, ErrWouldBlock
	case len(raw) == 0:
		return v, io.EOF
	}
	return v, io.ErrUnexpectedEOF
}

// Frames is ReadFramed's counterpart inside a stepper, and a framed
// stepper's EvData: it decodes each frame at the head of c.Input, consumes
// exactly its bytes and hands it to handle, and returns StepMore once the
// input ends mid-frame. It returns StepDone as soon as handle does, or with
// the error when decode rejects the head, which ends the session too. A
// frame may alias the input and is valid until Step returns.
func Frames[T any](c *ServerConv, decode func(raw []byte) (T, int, error),
	handle func(c *ServerConv, v T) StepVerdict) (StepVerdict, error) {
	for {
		in := c.Input()
		v, n, err := decode(in)
		if err != nil {
			return StepDone, err
		}
		if n > len(in) {
			return StepMore, nil
		}
		c.Consume(n)
		if handle(c, v) == StepDone {
			return StepDone, nil
		}
	}
}

// MaxLine caps one line of a line-oriented protocol, terminator included.
const MaxLine = 8 << 10

// ErrLineTooLong is Line's verdict on MaxLine bytes with no '\n' among them.
var ErrLineTooLong = errors.New("netsim: line exceeds MaxLine")

// Line is the decoder of a line-oriented protocol: the '\n'-terminated line
// at the head of raw, without its '\n' (and aliasing raw). While raw holds no
// '\n' it asks for one more byte and hands out the line so far, which a
// client keeps when the stream ends mid-line; a line that cannot end within
// MaxLine bytes is ErrLineTooLong.
func Line(raw []byte) ([]byte, int, error) {
	if i := bytes.IndexByte(raw[:min(len(raw), MaxLine)], '\n'); i >= 0 {
		return raw[:i], i + 1, nil
	}
	if len(raw) >= MaxLine {
		return nil, 0, ErrLineTooLong
	}
	return raw, len(raw) + 1, nil
}
