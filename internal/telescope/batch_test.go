package telescope

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"openhire/internal/netsim"
)

// testFlow derives a deterministic flow from an index. Indices that share
// i%17 share a 5-tuple, which the telescope keeps as separate records; the
// rest of the fields vary so corruption of any one would surface.
func testFlow(i int) FlowTuple {
	k := i % 17
	return FlowTuple{
		UnixNano: time.Date(2021, 4, 3, 0, 0, i, 0, time.UTC).UnixNano(),
		SrcIP:    netsim.IPv4(0xCB007100 + uint32(k)), // 203.0.113.x
		DstIP:    netsim.IPv4(0x2C010200 + uint32(k)), // 44.1.2.x
		SrcPort:  uint16(40000 + k), DstPort: 23,
		Protocol: ProtoTCP, TTL: uint8(40 + i%60), TCPFlags: FlagSYN,
		IPLen: 40, SynLen: 44, SynWinLen: uint16(1024 + i),
		PacketCnt: uint32(1 + i%5),
		CountryID: country("China"), ASN: uint32(4000 + i%7),
		IsSpoofed: i%3 == 0, IsMasscan: i%4 == 0,
	}
}

// flowsText renders a telescope's flows, in Flows order, for comparison.
func flowsText(tel *Telescope) string {
	var b strings.Builder
	for _, ft := range tel.Flows() {
		fmt.Fprintf(&b, "%+v\n", *ft)
	}
	return b.String()
}

func newTestTelescope() *Telescope {
	return New(netsim.MustParsePrefix("44.0.0.0/8"), nil)
}

// TestDumpBatchInterleavingIndependent asserts the property the parallel
// darknet generator relies on: producers recording batches under distinct
// ordinals yield the same capture, flow for flow and in the same order, no
// matter which order their batches land in.
func TestDumpBatchInterleavingIndependent(t *testing.T) {
	makeBatch := func(unit, n int) (uint64, []FlowTuple) {
		fts := make([]FlowTuple, n)
		for i := range fts {
			fts[i] = testFlow(unit*1000 + i)
		}
		return uint64(unit+1) << 32, fts
	}
	ingest := func(order []int) string {
		tel := newTestTelescope()
		for _, unit := range order {
			base, fts := makeBatch(unit, 64)
			tel.RecordBatch(base, fts)
		}
		return flowsText(tel)
	}
	want := ingest([]int{0, 1, 2, 3})
	for _, order := range [][]int{{3, 2, 1, 0}, {1, 3, 0, 2}, {2, 0, 3, 1}} {
		if got := ingest(order); got != want {
			t.Fatalf("batch order %v produced a different table", order)
		}
	}
}
