package telescope

import (
	"testing"
	"time"

	"openhire/internal/netsim"
)

// TestPartitionByHour asserts the per-hour split: slot i holds the flows with
// start+i h <= Time < start+(i+1) h in their input order, flows outside
// [start, start+hours h) are dropped — one just before start, whose offset
// would truncate into slot 0, among them — no in-window flow is lost, each
// slot's packet total equals a sum over the input by hour, and a slot cannot
// be appended into its neighbour.
func TestPartitionByHour(t *testing.T) {
	start := netsim.ExperimentStart
	mk := func(offset time.Duration, pkts uint32, src uint32) *FlowTuple {
		return &FlowTuple{UnixNano: start.Add(offset).UnixNano(), PacketCnt: pkts,
			SrcIP: netsim.IPv4(src), DstPort: 23, Protocol: ProtoTCP}
	}
	flows := []*FlowTuple{
		mk(-time.Hour, 100, 1),            // an hour before the window: dropped
		mk(-time.Minute, 9, 1),            // just before the window: dropped
		mk(0, 2, 2),                       // hour 0, first
		mk(2*time.Hour+time.Minute, 7, 5), // hour 2
		mk(30*time.Minute, 3, 3),          // hour 0, second
		mk(time.Hour, 5, 4),               // hour 1
		mk(3*time.Hour, 11, 6),            // past the window: dropped
		mk(100*time.Hour, 100, 7),         // far past the window: dropped
	}
	const hours = 3
	parts := PartitionByHour(flows, start, hours)
	if len(parts) != hours {
		t.Fatalf("%d slots, want %d", len(parts), hours)
	}
	wantLens := []int{2, 1, 1}
	for h, want := range wantLens {
		if len(parts[h]) != want || cap(parts[h]) != want {
			t.Fatalf("hour %d holds %d flows (cap %d), want %d", h, len(parts[h]), cap(parts[h]), want)
		}
	}
	if parts[0][0].SrcIP != 2 || parts[0][1].SrcIP != 3 {
		t.Fatalf("hour 0 order not preserved: %v, %v", parts[0][0].SrcIP, parts[0][1].SrcIP)
	}

	// Reconcile against a sum of the input by hour of the window.
	var sums [hours]uint64
	for _, ft := range flows {
		if off := ft.Time().Sub(start); off >= 0 && off < hours*time.Hour {
			sums[off/time.Hour] += uint64(ft.PacketCnt)
		}
	}
	for h := 0; h < hours; h++ {
		var sum uint64
		for _, ft := range parts[h] {
			sum += uint64(ft.PacketCnt)
		}
		if sum != sums[h] {
			t.Fatalf("hour %d: partition total %d, input sum %d", h, sum, sums[h])
		}
	}

	// Appending to a full slot must copy, not overwrite the next slot.
	next := parts[1][0]
	_ = append(parts[0], mk(0, 1, 99))
	if parts[1][0] != next {
		t.Fatal("an append to hour 0 overwrote hour 1")
	}

	if empty := PartitionByHour(flows[:2], start, hours); empty[0] != nil || empty[hours-1] != nil {
		t.Fatalf("hours without flows: %v, want nil slots", empty)
	}
}
