package telnet

import (
	"bytes"
	"context"
	"io"
	"slices"
	"sync"

	"openhire/internal/netsim"
)

// Banner is the result of a passive Telnet banner grab: the negotiation
// bytes and the visible text the server volunteered before any input.
type Banner struct {
	// Raw is everything the server sent, negotiation included, exactly as
	// it appeared on the wire. Honeypot fingerprints match against Raw.
	Raw []byte
	// Text is Raw with IAC sequences stripped: the human-visible banner.
	Text string
	// Commands are the parsed negotiation commands the server issued.
	Commands []Command
}

// Grab performs the paper's Telnet probe over an established connection:
// read whatever the server volunteers, passively refuse every negotiation,
// and return the banner. It never authenticates (Section 2.1: "unlike
// Markowsky et al. we do not try to connect to the devices after the
// scanning process"). The banner is complete when it ends in a prompt or
// when the server has nothing more to say (a read error: ErrWouldBlock,
// EOF or a reset).
//
// The bytes on the wire are SplitStream's: each chunk read is answered
// with RefuseAll of that chunk's commands, and the banner is SplitStream
// of everything read. Both are computed in one pass over pooled buffers
// (streamFilter, appendRefusals), so a grab allocates only the Banner it
// returns.
func Grab(ctx context.Context, conn io.ReadWriter) (Banner, error) {
	g := grabPool.Get().(*grabBufs)
	defer grabPool.Put(g)
	raw := g.raw[:0]
	f := streamFilter{data: g.data[:0]}
	for len(raw) < 64<<10 {
		if ctx.Err() != nil {
			break
		}
		// Read straight into the accumulated stream, at most grabChunk bytes
		// at a time: the chunk boundaries decide the refusals.
		raw = slices.Grow(raw, grabChunk)
		n, err := conn.Read(raw[len(raw) : len(raw)+grabChunk])
		if n > 0 {
			chunk := raw[len(raw) : len(raw)+n]
			raw = raw[:len(raw)+n]
			// Answer negotiation so chatty servers progress to their banner.
			if g.reply = appendRefusals(g.reply[:0], chunk); len(g.reply) > 0 {
				if _, werr := conn.Write(g.reply); werr != nil {
					break
				}
			}
			// A banner ending in a login or shell prompt means the server is
			// waiting for input: the grab is complete. This is the dominant
			// case across the device population.
			if f.feed(raw); bannerComplete(f.data) {
				break
			}
			continue
		}
		if err != nil {
			break // nothing more now, EOF, or reset: the banner is whatever we got
		}
	}
	g.raw, g.data = raw, f.data
	if len(raw) == 0 {
		return Banner{}, io.ErrUnexpectedEOF
	}
	return Banner{Raw: bytes.Clone(raw), Text: string(f.data), Commands: f.cmds}, nil
}

// grabChunk is the most bytes one Grab read takes.
const grabChunk = 4096

// grabBufs are a Grab's working buffers: the stream read so far, its
// filtered text and one chunk's refusals.
type grabBufs struct {
	raw, data, reply []byte
}

var grabPool = sync.Pool{New: func() any { return new(grabBufs) }}

// streamFilter is SplitStream run incrementally over a stream that only
// grows: after feed(raw), data and cmds are exactly SplitStream(raw). pos
// marks where parsing stopped — the end of raw, or the start of an
// incomplete sequence, which SplitStream drops and the next feed re-reads.
type streamFilter struct {
	pos  int
	data []byte
	cmds []Command
}

func (f *streamFilter) feed(raw []byte) {
	for f.pos < len(raw) {
		rest := raw[f.pos:]
		if rest[0] != IAC {
			j := bytes.IndexByte(rest, IAC)
			if j < 0 {
				j = len(rest)
			}
			f.data = append(f.data, rest[:j]...)
			f.pos += j
			continue
		}
		n, cmd, kind := iacSequence(rest)
		switch kind {
		case seqIncomplete:
			return
		case seqData:
			f.data = append(f.data, IAC)
		case seqCommand:
			f.cmds = append(f.cmds, cmd)
		}
		f.pos += n
	}
}

// appendRefusals appends RefuseAll(cmds) for the cmds SplitStream(chunk)
// returns, building neither.
func appendRefusals(dst, chunk []byte) []byte {
	for {
		i := bytes.IndexByte(chunk, IAC)
		if i < 0 {
			return dst
		}
		n, cmd, kind := iacSequence(chunk[i:])
		switch {
		case kind == seqIncomplete:
			return dst
		case kind == seqCommand && cmd.Verb == DO:
			dst = append(dst, IAC, WONT, cmd.Option)
		case kind == seqCommand && cmd.Verb == WILL:
			dst = append(dst, IAC, DONT, cmd.Option)
		}
		chunk = chunk[i+n:]
	}
}

// Kinds of IAC sequence, as SplitStream reads them.
const (
	seqIncomplete = iota // the input ends inside the sequence
	seqData              // IAC IAC: one literal 0xFF data byte
	seqCommand           // IAC DO/DONT/WILL/WONT option
	seqOther             // a subnegotiation or a lone command: no effect
)

// iacSequence reads the sequence at the head of p (p[0] == IAC) by
// SplitStream's rules and returns its length.
func iacSequence(p []byte) (n int, cmd Command, kind int) {
	if len(p) < 2 {
		return 0, cmd, seqIncomplete
	}
	switch p[1] {
	case IAC:
		return 2, cmd, seqData
	case DO, DONT, WILL, WONT:
		if len(p) < 3 {
			return 0, cmd, seqIncomplete
		}
		return 3, Command{Verb: p[1], Option: p[2]}, seqCommand
	case SB:
		end := bytes.Index(p[2:], []byte{IAC, SE})
		if end < 0 {
			return 0, cmd, seqIncomplete
		}
		return 2 + end + 2, cmd, seqOther
	default:
		return 2, cmd, seqOther
	}
}

// bannerPrompts are the terminal strings after which a Telnet service waits
// for input. A grab that sees one returns without another read; banners
// without a recognizable prompt complete when the server falls silent, so
// detection is an optimization, never a filter.
var bannerPrompts = []string{"ogin: ", "ogin:", "assword: ", "assword:", "$ ", "# ", "> "}

// bannerComplete reports whether the decoded banner ends in a prompt.
func bannerComplete(data []byte) bool {
	for _, p := range bannerPrompts {
		if len(data) >= len(p) && string(data[len(data)-len(p):]) == p {
			return true
		}
	}
	return false
}

// Login drives a full authentication attempt: wait for a login prompt,
// submit credentials, and report whether a shell prompt came back. Attack
// actors (Mirai-style bruteforcers) use this; the scanner does not.
func Login(ctx context.Context, conn io.ReadWriter, username, password string) (bool, error) {
	if err := awaitSubstring(ctx, conn, "login:", "Login:"); err != nil {
		return false, err
	}
	if _, err := conn.Write(append(EscapeData([]byte(username)), '\r', '\n')); err != nil {
		return false, err
	}
	if err := awaitSubstring(ctx, conn, "assword:"); err != nil {
		return false, err
	}
	if _, err := conn.Write(append(EscapeData([]byte(password)), '\r', '\n')); err != nil {
		return false, err
	}
	// Success is a shell prompt; failure is "Login incorrect" or EOF.
	// Watching for the rejection text matters: without it a failed attempt
	// reads on until the server falls silent.
	matched, err := awaitAny(ctx, conn, "$", "#", ">", "incorrect", "denied")
	if err != nil {
		return false, nil //nolint:nilerr // auth failure is a result, not an error
	}
	return matched != "incorrect" && matched != "denied", nil
}

// Exec sends a shell command on an authenticated session and collects output
// until the next prompt or until the server falls silent.
func Exec(conn io.ReadWriter, cmd string) (string, error) {
	if _, err := conn.Write(append(EscapeData([]byte(cmd)), '\r', '\n')); err != nil {
		return "", err
	}
	var out []byte
	scratch := netsim.GetScratch()
	defer netsim.PutScratch(scratch)
	buf := (*scratch)[:1024] // read in the same chunk sizes as before pooling
	for {
		n, err := conn.Read(buf)
		if n > 0 {
			data, _ := SplitStream(buf[:n])
			out = append(out, data...)
			if containsAny(out, "$ ", "# ", "> ") {
				break
			}
		}
		if err != nil {
			break
		}
	}
	return string(out), nil
}

// awaitSubstring reads until any needle appears in the decoded stream.
func awaitSubstring(ctx context.Context, conn io.ReadWriter, needles ...string) error {
	_, err := awaitAny(ctx, conn, needles...)
	return err
}

// awaitAny reads until one of the needles appears, returning which.
func awaitAny(ctx context.Context, conn io.ReadWriter, needles ...string) (string, error) {
	var seen []byte
	scratch := netsim.GetScratch()
	defer netsim.PutScratch(scratch)
	buf := (*scratch)[:1024] // read in the same chunk sizes as before pooling
	for {
		if ctx.Err() != nil {
			return "", ctx.Err()
		}
		n, err := conn.Read(buf)
		if n > 0 {
			data, cmds := SplitStream(buf[:n])
			if reply := RefuseAll(cmds); len(reply) > 0 {
				if _, werr := conn.Write(reply); werr != nil {
					return "", werr
				}
			}
			seen = append(seen, data...)
			for _, needle := range needles {
				if needle != "" && indexOf(seen, needle) >= 0 {
					return needle, nil
				}
			}
		}
		if err != nil {
			return "", err
		}
	}
}

func containsAny(s []byte, needles ...string) bool {
	for _, n := range needles {
		if n != "" && indexOf(s, n) >= 0 {
			return true
		}
	}
	return false
}

func indexOf(s []byte, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if string(s[i:i+len(sub)]) == sub {
			return i
		}
	}
	return -1
}
