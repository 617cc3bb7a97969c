package netsim

import (
	"bufio"
	"io"
	"sync"
)

// Pooled buffered readers and scratch buffers for protocol dialogues.
//
// The discrete-event engine runs tens of thousands of short conversations
// per campaign day; a fresh 4 KiB bufio.Reader (or raw scratch slice) per
// client call was the single largest allocation source in the replay hot
// path. Callers bracket use with Get/Put: a put-back reader drops any
// buffered-but-unread bytes, which matches the discard semantics of the
// throwaway readers these pools replace — every call site previously
// abandoned its reader (and the bytes it had slurped) at the same point.

var readerPool = sync.Pool{
	New: func() any { return bufio.NewReaderSize(nil, 4096) },
}

// GetReader returns a pooled 4 KiB buffered reader positioned on r.
func GetReader(r io.Reader) *bufio.Reader {
	br := readerPool.Get().(*bufio.Reader)
	br.Reset(r)
	return br
}

// PutReader recycles a reader obtained from GetReader, discarding anything
// it still buffers. The caller must not use br afterwards.
func PutReader(br *bufio.Reader) {
	br.Reset(nil)
	readerPool.Put(br)
}

var scratchPool = sync.Pool{
	New: func() any {
		b := make([]byte, 4096)
		return &b
	},
}

// GetScratch returns a pooled scratch byte slice with len == cap ≥ 4 KiB.
// Callers that grow it with append may store the grown slice back through
// the pointer before PutScratch so the capacity is retained.
func GetScratch() *[]byte {
	return scratchPool.Get().(*[]byte)
}

// PutScratch recycles a scratch slice obtained from GetScratch. The caller
// must not retain aliases into the slice afterwards. Length is restored to
// capacity so the len == cap invariant of GetScratch holds for the next
// user regardless of how the previous one sliced it.
func PutScratch(b *[]byte) {
	*b = (*b)[:cap(*b)]
	scratchPool.Put(b)
}
