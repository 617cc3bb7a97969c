package netsim

// engine_bench_test.go measures the conversation engine's per-dialogue cost
// in isolation: one banner + ping/echo exchange per conversation, submitted
// through the sharded run queues, the server a stepper run inline.

import (
	"context"
	"testing"
)

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

func benchConversationEngine(b *testing.B, handler StreamHandler, shards int) {
	n := singleHostNetwork(handler, nil)
	dst := Endpoint{IP: MustParseIPv4("10.0.0.1"), Port: 7}
	e := NewConvEngine(shards)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src := IPv4(0xC0000200 + uint32(i%251))
		e.Submit(ctx, src, dst.IP, func(jctx context.Context) {
			conn, err := n.Dial(jctx, src, dst, ProbeOptions{})
			if err != nil {
				return
			}
			scratch := GetScratch()
			buf := *scratch
			_, _ = conn.Read(buf) // banner
			_, _ = conn.Write([]byte("ping\n"))
			_, _ = conn.Read(buf) // echo
			PutScratch(scratch)
			_ = conn.Close()
		})
	}
	e.Close()
	b.StopTimer()
	n.Quiesce()
}

// BenchmarkConversationEngine is the engine's per-conversation cost floor:
// dial, banner, one request/response round trip, close.
// Spine row it breaks down: report_default attack.conversation_us.
func BenchmarkConversationEngine(b *testing.B) {
	b.Run("stepper/shards=1", func(b *testing.B) {
		benchConversationEngine(b, echoStepper{}, 1)
	})
	b.Run("stepper/shards=8", func(b *testing.B) {
		benchConversationEngine(b, echoStepper{}, 8)
	})
}
