package netsim

// conv_bench_test.go measures the conversation engine's per-dialogue cost
// in isolation: one banner + ping/echo exchange per conversation, the server
// a stepper run inline.

import "testing"

// echoStepper answers the opening banner and echoes every client batch. It
// is stateless, so it serves as its own handler.
type echoStepper struct{}

func (s echoStepper) NewStepper() Stepper { return s }

func (echoStepper) Step(c *ServerConv, ev ConvEvent) StepVerdict {
	switch ev {
	case EvOpen:
		_, _ = c.Write([]byte("hello\n"))
		return StepMore
	case EvData:
		in := c.Input()
		_, _ = c.Write(in)
		c.Consume(len(in))
		return StepMore
	default:
		return StepDone
	}
}

// BenchmarkConversation is the engine's per-conversation cost floor: dial,
// banner, one request/response round trip, close, all on the calling
// goroutine.
// Spine row it breaks down: report_default attack.conversation_us.
func BenchmarkConversation(b *testing.B) {
	n := singleHostNetwork(echoStepper{}, nil)
	dst := Endpoint{IP: MustParseIPv4("10.0.0.1"), Port: 7}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		conn, err := n.Dial(IPv4(0xC0000200+uint32(i%251)), dst, ProbeOptions{})
		if err != nil {
			b.Fatal(err)
		}
		scratch := GetScratch()
		buf := *scratch
		_, _ = conn.Read(buf) // banner
		_, _ = conn.Write([]byte("ping\n"))
		_, _ = conn.Read(buf) // echo
		PutScratch(scratch)
		_ = conn.Close()
	}
}
