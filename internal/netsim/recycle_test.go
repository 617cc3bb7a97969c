package netsim

// recycle_test.go checks that a recycled conversation is indistinguishable
// from a fresh one. A conv carries everything of one dialogue the engine
// owns — both byte queues, the server's input buffer, the server party and
// its ServerConv, the fault state — and hands all of it to the next dial
// once reset. Each case runs a conversation A that leaves that state dirty,
// lets its conv recycle, runs a generated conversation B on it, and
// requires B to leave exactly what B leaves on a conv no one used before.

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"strings"
	"testing"
	"time"
)

// lineServer answers each line with its length and the line, ends the
// session itself on "bye", and logs every event it sees, with the input
// left unconsumed at EOF.
type lineServer struct {
	log *[]string
}

func (s lineServer) Step(c *ServerConv, ev ConvEvent) StepVerdict {
	logf := func(format string, args ...any) { *s.log = append(*s.log, fmt.Sprintf(format, args...)) }
	switch ev {
	case EvOpen:
		logf("open from %v", c.RemoteIP())
		if _, err := c.Write([]byte("hello\n")); err != nil {
			logf("banner: %v", err)
			return StepDone
		}
		return StepMore
	case EvData:
		v, err := Frames(c, Line, func(c *ServerConv, line []byte) StepVerdict {
			logf("line %q", line)
			if string(line) == "bye" {
				_, _ = c.Write([]byte("bye\n"))
				return StepDone
			}
			if _, err := fmt.Fprintf(c, "%d %s\n", len(line), line); err != nil {
				logf("answer: %v", err)
				return StepDone
			}
			return StepMore
		})
		if v == StepDone {
			logf("done, err %v", err)
		}
		return v
	case EvEOF:
		logf("eof, tail %q", c.Input())
	case EvBroken:
		logf("broken, tail %q", c.Input())
	}
	return StepDone
}

// lineHost serves a fresh lineServer per dial on port 7, each logging into
// a log of its own.
type lineHost struct {
	logs *[]*[]string
}

func (h lineHost) StreamService(port uint16) StreamHandler {
	if port != 7 {
		return nil
	}
	return h
}

func (h lineHost) NewStepper() Stepper {
	log := new([]string)
	*h.logs = append(*h.logs, log)
	return lineServer{log: log}
}

func (lineHost) DatagramService(uint16) DatagramHandler { return nil }

// planBySource applies a fault plan to one source's dials only.
type planBySource struct {
	src  IPv4
	plan FaultPlan
}

func (p planBySource) PlanProbe(src IPv4, _ Endpoint, _ Transport, _ uint32, _ time.Time) FaultPlan {
	if src == p.src {
		return p.plan
	}
	return FaultPlan{}
}

func (planBySource) Blackholed(IPv4, IPv4) bool { return false }

// script is one client's side of a conversation: it reads the banner, then
// follows each write by reading everything the server has answered, and
// closes.
type script struct {
	writes []string
}

// transcript is everything a conversation leaves behind on both sides.
type transcript struct {
	client    string // bytes read and every read or write error, in order
	truncated bool
	reset     bool
	server    string // the server's event log
}

// drain reads until the stream has nothing more, recording what it read and
// how the reading ended.
func drain(conn *ServiceConn, out *strings.Builder) {
	buf := make([]byte, 7) // small: a reply spans several reads
	for {
		n, err := conn.Read(buf)
		out.Write(buf[:n])
		if err != nil {
			if !errors.Is(err, ErrWouldBlock) {
				fmt.Fprintf(out, "<read: %v>", err)
			}
			return
		}
	}
}

// run dials dst from src, plays s, closes, and reports the conv it ran on
// with the transcript.
func (s script) run(n *Network, logs *[]*[]string, src IPv4) (*conv, transcript) {
	var client strings.Builder
	first := len(*logs)
	conn, err := n.Dial(src, Endpoint{IP: MustParseIPv4("10.0.0.1"), Port: 7}, ProbeOptions{})
	if err != nil {
		panic(err)
	}
	cv := conn.cv
	drain(conn, &client)
	for _, w := range s.writes {
		if _, err := conn.Write([]byte(w)); err != nil {
			fmt.Fprintf(&client, "<write: %v>", err)
		}
		drain(conn, &client)
	}
	_ = conn.Close()
	return cv, transcript{client: client.String(), truncated: conn.FaultTruncated(), reset: conn.FaultReset(),
		server: strings.Join(*(*logs)[first], "\n")}
}

// runFresh runs s on a fresh network and a conv no one used before. It
// empties the pool of recycled convs first; one parked in another P's
// private slot is beyond the emptying's reach, so a dial that still met a
// recycled conv is retried.
func (s script) runFresh(t *testing.T, src IPv4) transcript {
	for range 100 {
		for convPool.Get().(*conv).gen != 0 {
		}
		var logs []*[]string
		cv, tr := s.run(lineNetwork(&logs), &logs, src)
		if cv.gen == 1 { // released once, by this run
			return tr
		}
	}
	t.Fatal("no dial in 100 tries ran on a fresh conv")
	return transcript{}
}

// lineNetwork serves lineHost at 10.0.0.1, logging into logs.
func lineNetwork(logs *[]*[]string) *Network {
	n := NewNetwork(NewSimClock(ExperimentStart))
	n.AddProvider(MustParsePrefix("10.0.0.1/32"), HostProviderFunc(func(IPv4) Host { return lineHost{logs} }))
	return n
}

// genScript draws B: a few lines cut at random points, with a partial last
// line now and then.
func genScript(r *rand.Rand) script {
	var stream strings.Builder
	for i := range 1 + r.IntN(5) {
		fmt.Fprintf(&stream, "b%d-%s\n", i, strings.Repeat("x", r.IntN(20)))
	}
	if r.IntN(3) == 0 {
		stream.WriteString("partial-b")
	}
	all := stream.String()
	var s script
	for len(all) > 0 {
		k := 1 + r.IntN(len(all))
		s.writes, all = append(s.writes, all[:k]), all[k:]
	}
	return s
}

// TestRecycledConvIsFresh runs generated conversations B after four kinds
// of dirty A, each B on A's recycled conv, and compares each B with the same
// B on a fresh network and a conv no one used before. The pool hands A's
// conv to the next dial on the same goroutine only most of the time (the
// race detector drops a quarter of its Puts), so a pair is retried until B
// lands on it.
func TestRecycledConvIsFresh(t *testing.T) {
	srcA, srcB := MustParseIPv4("192.0.2.1"), MustParseIPv4("192.0.2.2")
	kinds := []struct {
		name string
		a    script
		plan FaultPlan
	}{
		// A closes with half a line in ServerConv.Input.
		{"partial frame", script{writes: []string{"a1\n", "a2 left in the input"}}, FaultPlan{}},
		// A's answers trip a tarpit, then a reset, mid-reply.
		{"tarpit", script{writes: []string{"a1\n", "a22222\n", "a3\n"}}, FaultPlan{TruncateAfter: 9}},
		{"reset", script{writes: []string{"a1\n", "a22222\n", "a3\n"}}, FaultPlan{ResetAfter: 9}},
		// The server ends A on "bye" with client bytes still queued behind it.
		{"server ended first", script{writes: []string{"a1\nbye\nqueued\n", "late\n"}}, FaultPlan{}},
	}
	r := rand.New(rand.NewPCG(1, 2))
	for _, k := range kinds {
		for i := range 50 {
			b := genScript(r)

			var got transcript
			recycled := false
			for range 100 {
				var logs []*[]string
				n := lineNetwork(&logs)
				n.SetFaults(planBySource{src: srcA, plan: k.plan})
				cvA, _ := k.a.run(n, &logs, srcA)
				var cvB *conv
				cvB, got = b.run(n, &logs, srcB)
				if recycled = cvA == cvB; recycled {
					break
				}
			}
			if !recycled {
				t.Fatalf("%s: B never ran on A's recycled conv in 100 tries", k.name)
			}

			want := b.runFresh(t, srcB)
			if got != want {
				t.Fatalf("%s, B #%d %q:\nrecycled %+v\n   fresh %+v", k.name, i, b.writes, got, want)
			}
		}
	}
}
