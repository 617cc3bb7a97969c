package tsdb

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
)

// floatBits flattens every float in st to its bit pattern, in state order,
// and returns a copy of st with the floats zeroed: two states are the same
// value exactly when the copies are DeepEqual and the bit lists match (NaN
// is not DeepEqual to itself, and its payload matters to the codec).
func floatBits(st *State) (*State, []uint64) {
	cp := *st
	cp.Series = append([]SeriesState(nil), st.Series...)
	var bits []uint64
	bucket := func(b Bucket) Bucket {
		bits = append(bits, math.Float64bits(b.Sum), math.Float64bits(b.Min), math.Float64bits(b.Max), math.Float64bits(b.Last))
		b.Sum, b.Min, b.Max, b.Last = 0, 0, 0, 0
		return b
	}
	for i := range cp.Series {
		ss := &cp.Series[i]
		if ss.Points != nil {
			ss.Points = append([]Point(nil), ss.Points...)
		}
		for j := range ss.Points {
			bits = append(bits, math.Float64bits(ss.Points[j].Value))
			ss.Points[j].Value = 0
		}
		if ss.Rollups != nil {
			ss.Rollups = append([]Bucket(nil), ss.Rollups...)
		}
		for j := range ss.Rollups {
			ss.Rollups[j] = bucket(ss.Rollups[j])
		}
		ss.Active = bucket(ss.Active)
	}
	return &cp, bits
}

func sameState(a, b *State) bool {
	ca, ba := floatBits(a)
	cb, bb := floatBits(b)
	return reflect.DeepEqual(ca, cb) && reflect.DeepEqual(ba, bb)
}

// randomState generates a state with every field populated, including
// NaN, ±Inf, negative cycles and maximal counters.
func randomState(rng *rand.Rand) *State {
	floats := []float64{math.NaN(), math.Float64frombits(0x7ff8_0000_dead_beef), math.Inf(1), math.Inf(-1),
		0, math.Copysign(0, -1), math.MaxFloat64, math.SmallestNonzeroFloat64, -1.5}
	f := func() float64 {
		if rng.Intn(3) == 0 {
			return floats[rng.Intn(len(floats))]
		}
		return rng.NormFloat64() * 1e6
	}
	bucket := func() Bucket {
		return Bucket{Start: rng.Int63n(1000) - 10, Count: rng.Uint64(), Sum: f(), Min: f(), Max: f(), Last: f()}
	}
	st := &State{
		RawCapacity:    rng.Intn(4096),
		RollupEvery:    rng.Intn(64),
		RollupCapacity: rng.Intn(64),
		LastCycle:      rng.Int63() - rng.Int63(),
	}
	for range rng.Intn(6) {
		ss := SeriesState{Name: string(rune('a' + rng.Intn(26))), Dropped: rng.Uint64(), Active: bucket()}
		for range rng.Intn(3) {
			ss.Labels = append(ss.Labels, Label{Key: "k\x00é", Value: string(rune('a' + rng.Intn(26)))})
		}
		for range rng.Intn(40) {
			ss.Points = append(ss.Points, Point{Cycle: rng.Int63() - rng.Int63(), Value: f()})
		}
		for range rng.Intn(4) {
			ss.Rollups = append(ss.Rollups, bucket())
		}
		st.Series = append(st.Series, ss)
	}
	return st
}

// TestStateBinaryRoundTrip asserts DecodeState(AppendBinary(st)) == st for
// generated states — NaN payloads, ±Inf and negative zero in points and
// buckets, MaxUint64 counters and negative cycles included — and that empty
// collections decode to nil, encoding exactly as nil ones do.
func TestStateBinaryRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	states := []*State{
		{},
		{LastCycle: -1, Series: []SeriesState{{Name: "", Dropped: math.MaxUint64,
			Points:  []Point{{Cycle: math.MaxInt64, Value: math.NaN()}, {Cycle: math.MinInt64, Value: math.Inf(-1)}},
			Rollups: []Bucket{{Start: -30, Count: math.MaxUint64, Sum: math.Inf(1), Min: math.NaN(), Max: math.Inf(-1), Last: math.NaN()}},
			Active:  Bucket{Sum: math.NaN()}}}},
	}
	for range 200 {
		states = append(states, randomState(rng))
	}
	for i, st := range states {
		payload := st.AppendBinary(nil)
		got, err := DecodeState(payload)
		if err != nil {
			t.Fatalf("state %d: %v", i, err)
		}
		if !sameState(st, got) {
			t.Fatalf("state %d did not round-trip:\n want %+v\n got  %+v", i, st, got)
		}
	}

	empty := &State{Series: []SeriesState{{Name: "s", Labels: Labels{}, Points: []Point{}, Rollups: []Bucket{}}}}
	null := &State{Series: []SeriesState{{Name: "s"}}}
	if string(empty.AppendBinary(nil)) != string(null.AppendBinary(nil)) {
		t.Error("empty and nil collections encode differently")
	}
	got, err := DecodeState(empty.AppendBinary(nil))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, null) {
		t.Errorf("empty collections decoded to %+v, want nil ones", got)
	}
	if st, err := DecodeState((&State{}).AppendBinary(nil)); err != nil || st.Series != nil {
		t.Errorf("empty state decoded to %+v, %v; want no series", st, err)
	}
}

// TestDecodeStateRefusesDamage asserts every truncation and a trailing byte
// are errors, and that a count larger than the payload can hold is refused
// before anything is allocated for it.
func TestDecodeStateRefusesDamage(t *testing.T) {
	payload := randomState(rand.New(rand.NewSource(2))).AppendBinary(nil)
	for n := range len(payload) {
		if _, err := DecodeState(payload[:n]); err == nil {
			t.Fatalf("truncation to %d of %d bytes accepted", n, len(payload))
		}
	}
	if _, err := DecodeState(append(payload, 0)); err == nil {
		t.Error("trailing byte accepted")
	}
	// Options and LastCycle, then a series count of 2^62.
	huge := []byte{0, 0, 0, 0, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x40}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := DecodeState(huge)
	runtime.ReadMemStats(&after)
	if allocated := after.TotalAlloc - before.TotalAlloc; err == nil || allocated > 1<<16 {
		t.Errorf("huge series count: err = %v after %d bytes allocated, want a refusal without allocating for it", err, allocated)
	}
}
