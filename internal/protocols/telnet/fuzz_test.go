package telnet

import (
	"bytes"
	"slices"
	"testing"
)

// FuzzSplitStream feeds arbitrary byte streams — including the truncated
// banner prefixes a tarpitted connection delivers — through the full
// client-side parse path: stream splitting, negotiation responses and prompt
// detection must never panic, and the invariants below must hold for any
// input.
func FuzzSplitStream(f *testing.F) {
	f.Add([]byte("login: "))
	f.Add([]byte{})
	f.Add([]byte{IAC})                                         // lone IAC at end
	f.Add([]byte{IAC, DO})                                     // truncated negotiation
	f.Add([]byte{IAC, DO, OptEcho, 'h', 'i'})                  // complete negotiation
	f.Add([]byte{IAC, WILL, OptSuppressGoAhead, IAC, IAC})     // escaped IAC data
	f.Add([]byte{IAC, SB, OptTerminalType, 1, 2, 3})           // unterminated subneg
	f.Add([]byte{IAC, SB, OptNAWS, 0, 80, 0, 24, IAC, SE})     // complete subneg
	f.Add([]byte{'B', 'u', 's', 'y', 'B', 'o', 'x', IAC, 241}) // lone command mid-banner
	f.Add(append(bytes.Repeat([]byte{IAC, DO, OptLinemode}, 8), "root@device:~$ "...))

	f.Fuzz(func(t *testing.T, raw []byte) {
		data, cmds := SplitStream(raw)
		if len(data) > len(raw) {
			t.Fatalf("data grew: %d bytes out of %d in", len(data), len(raw))
		}
		for _, c := range cmds {
			if c.Verb != DO && c.Verb != DONT && c.Verb != WILL && c.Verb != WONT {
				t.Fatalf("impossible verb %d in parsed command", c.Verb)
			}
		}
		// A passive client must be able to answer any parsed negotiation.
		reply := RefuseAll(cmds)
		if len(reply) > 3*len(cmds) {
			t.Fatalf("refusal reply %d bytes for %d commands", len(reply), len(cmds))
		}
		// Prompt detection runs on whatever data survived — a partial banner
		// cut mid-prompt must be handled, not panic.
		_ = bannerComplete(data)
	})
}

// FuzzEscapeRoundTrip asserts the data plane is lossless for any payload:
// escaping then splitting returns the original bytes and never synthesizes
// negotiation commands.
func FuzzEscapeRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{IAC})
	f.Add([]byte{IAC, IAC, IAC})
	f.Add([]byte("plain text with\xffstuffed\xffbytes"))

	f.Fuzz(func(t *testing.T, payload []byte) {
		data, cmds := SplitStream(EscapeData(payload))
		if !bytes.Equal(data, payload) {
			t.Fatalf("round trip mangled payload: %q -> %q", payload, data)
		}
		if len(cmds) != 0 {
			t.Fatalf("escaped payload parsed as %d negotiation commands", len(cmds))
		}
	})
}

// FuzzGrabFilter pins Grab's one-pass filter to the reference functions it
// replaces. The stream arrives in fuzz-chosen chunks (plan's bytes are the
// chunk sizes, in turn); after every chunk the incremental filter's data and
// commands must be SplitStream of everything received so far, and the
// chunk's refusals RefuseAll of SplitStream of the chunk alone.
func FuzzGrabFilter(f *testing.F) {
	f.Add([]byte("login: "), []byte{})
	f.Add([]byte{IAC, DO, OptEcho, IAC, WILL, OptSuppressGoAhead, 'h', 'i'}, []byte{1})
	f.Add([]byte{IAC, SB, OptNAWS, 0, 80, 0, 24, IAC, SE, '$', ' '}, []byte{2, 3})
	f.Add([]byte{IAC, IAC, IAC, 241, IAC, DO}, []byte{0, 1})
	f.Add(append(bytes.Repeat([]byte{IAC, WILL, OptEcho}, 5), "root@device:~$ "...), []byte{4, 1, 7})

	f.Fuzz(func(t *testing.T, stream, plan []byte) {
		var filter streamFilter
		for got, i := 0, 0; got < len(stream); i++ {
			n := len(stream) - got
			if len(plan) > 0 {
				n = min(n, 1+int(plan[i%len(plan)]))
			}
			chunk := stream[got : got+n]
			got += n

			_, chunkCmds := SplitStream(chunk)
			if want, have := RefuseAll(chunkCmds), appendRefusals(nil, chunk); !bytes.Equal(have, want) {
				t.Fatalf("chunk %x: refusals %x, want %x", chunk, have, want)
			}
			filter.feed(stream[:got])
			data, cmds := SplitStream(stream[:got])
			if !bytes.Equal(filter.data, data) || !slices.Equal(filter.cmds, cmds) {
				t.Fatalf("after %d of %d bytes: filter %q %v, SplitStream %q %v",
					got, len(stream), filter.data, filter.cmds, data, cmds)
			}
		}
	})
}
