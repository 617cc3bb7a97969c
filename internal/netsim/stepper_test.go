package netsim

import (
	"bytes"
	"io"
	"strings"
	"testing"
)

// TestLine pins the line framer at its cap: a line ends at the first '\n'
// and may take MaxLine bytes with it; without a '\n' it hands out the line
// so far and asks for one more byte until MaxLine bytes are in, which is an
// error.
func TestLine(t *testing.T) {
	long := bytes.Repeat([]byte{'a'}, MaxLine-1)
	for _, c := range []struct {
		name string
		raw  []byte
		line string
		n    int
		err  error
	}{
		{"empty", nil, "", 1, nil},
		{"no newline yet", []byte("USER x"), "USER x", 7, nil},
		{"empty line", []byte("\nrest"), "", 1, nil},
		{"CR kept", []byte("PASS y\r\nQUIT\r\n"), "PASS y\r", 8, nil},
		{"one short of the cap", long, string(long), MaxLine, nil},
		{"at the cap with its newline", append(long, '\n', 'b'), string(long), MaxLine, nil},
		{"at the cap without one", append(long, 'a', '\n'), "", 0, ErrLineTooLong},
	} {
		line, n, err := Line(c.raw)
		if string(line) != c.line || n != c.n || err != c.err {
			t.Errorf("%s: %.20q, %d, %v; want %.20q, %d, %v", c.name, line, n, err, c.line, c.n, c.err)
		}
	}
}

// TestReadFramedLine: the blocking reader over Line takes one line and not
// a byte of the next.
func TestReadFramedLine(t *testing.T) {
	r := strings.NewReader("220 ready\r\n331 next")
	line, err := ReadFramed(r, Line)
	if err != nil || string(line) != "220 ready\r" || r.Len() != len("331 next") {
		t.Fatalf("line %q, %v, %d bytes left", line, err, r.Len())
	}
}

// scripted writes out in its opening burst, then hangs up or — left open —
// answers each client batch with reply.
type scripted struct {
	out, reply string
	hangUp     bool
}

func (s scripted) NewStepper() Stepper { return s }

func (s scripted) Step(c *ServerConv, ev ConvEvent) StepVerdict {
	switch ev {
	case EvOpen:
		if _, err := c.Write([]byte(s.out)); err != nil || s.hangUp {
			return StepDone
		}
	case EvData:
		c.Consume(len(c.Input()))
		_, _ = c.Write([]byte(s.reply))
	default:
		return StepDone
	}
	return StepMore
}

// queued is how many bytes the client has not read yet.
func queued(conn *ServiceConn) int {
	cv := conn.cv
	cv.mu.Lock()
	defer cv.mu.Unlock()
	return cv.s2c.size()
}

// TestReadFramedStates is ReadFramed's state table on a conversation: for
// each state of the client's queue the frame, the error and the bytes left.
// Whatever the state, the read is one decode over the queue in place — none
// on a torn pipe — never a read per byte.
func TestReadFramedStates(t *testing.T) {
	long := strings.Repeat("a", MaxLine+1)
	for _, c := range []struct {
		name  string
		srv   scripted
		plan  FaultPlan
		frame string
		err   error
		left  int
	}{
		{"broken", scripted{out: "220 ok\r\n"}, FaultPlan{ResetAfter: 3}, "", io.ErrClosedPipe, 0},
		{"whole frame", scripted{out: "220 ok\r\n331 next"}, FaultPlan{}, "220 ok\r", nil, len("331 next")},
		{"partial, closed", scripted{out: "220 o", hangUp: true}, FaultPlan{}, "220 o", io.ErrUnexpectedEOF, 0},
		{"partial, open", scripted{out: "220 o"}, FaultPlan{}, "220 o", ErrWouldBlock, 0},
		{"empty, open", scripted{}, FaultPlan{}, "", ErrWouldBlock, 0},
		{"empty, closed", scripted{hangUp: true}, FaultPlan{}, "", io.EOF, 0},
		{"decoder error", scripted{out: long}, FaultPlan{}, "", ErrLineTooLong, len(long)},
	} {
		n := singleHostNetwork(c.srv, fixedPlanFaults{plan: c.plan})
		conn, err := n.Dial(MustParseIPv4("192.0.2.1"),
			Endpoint{IP: MustParseIPv4("10.0.0.1"), Port: 7}, ProbeOptions{})
		if err != nil {
			t.Fatal(err)
		}
		decodes := 0
		frame, err := ReadFramed(conn, func(raw []byte) ([]byte, int, error) {
			decodes++
			return Line(raw)
		})
		wantDecodes := 1
		if c.err == io.ErrClosedPipe {
			wantDecodes = 0
		}
		if string(frame) != c.frame || err != c.err || queued(conn) != c.left || decodes != wantDecodes {
			t.Errorf("%s: %.20q, %v, %d bytes left after %d decodes; want %.20q, %v, %d after %d",
				c.name, frame, err, queued(conn), decodes, c.frame, c.err, c.left, wantDecodes)
		}
		_ = conn.Close()
	}
}

// TestReadFramedFrameValidity: a frame aliases the conversation's queue. It
// holds until the client's next read or write; once the client has read on
// and written again, the server's answer may take its bytes.
func TestReadFramedFrameValidity(t *testing.T) {
	n := singleHostNetwork(scripted{out: "one\n", reply: "TWO\n"}, nil)
	conn, err := n.Dial(MustParseIPv4("192.0.2.1"),
		Endpoint{IP: MustParseIPv4("10.0.0.1"), Port: 7}, ProbeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	frame, err := ReadFramed(conn, Line)
	if string(frame) != "one" || err != nil {
		t.Fatalf("first read: %q, %v", frame, err)
	}
	if _, err := ReadFramed(conn, Line); err != ErrWouldBlock {
		t.Fatalf("read of a drained queue: %v", err)
	}
	_, _ = conn.Write([]byte("x\n"))
	if string(frame) != "TWO" {
		t.Fatalf("the first frame reads %q after the next read and write: it was copied, not read in place", frame)
	}
	if next, err := ReadFramed(conn, Line); string(next) != "TWO" || err != nil {
		t.Fatalf("second frame: %q, %v", next, err)
	}
}
