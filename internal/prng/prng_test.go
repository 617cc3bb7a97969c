package prng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if got, want := a.Uint64(), b.Uint64(); got != want {
			t.Fatalf("stream diverged at %d: %d != %d", i, got, want)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical outputs", same)
	}
}

func TestDeriveIndependentOfConsumption(t *testing.T) {
	a := New(7)
	b := New(7)
	for i := 0; i < 50; i++ {
		a.Uint64() // consume some of a's stream
	}
	da := a.Derive(1, 2, 3)
	db := b.Derive(1, 2, 3)
	for i := 0; i < 100; i++ {
		if da.Uint64() != db.Uint64() {
			t.Fatal("Derive depends on parent stream consumption")
		}
	}
}

func TestDeriveLabelsMatter(t *testing.T) {
	s := New(9)
	if s.Derive(1).Uint64() == s.Derive(2).Uint64() {
		t.Fatal("different labels produced identical derived streams")
	}
	if s.Derive(1, 2).Uint64() == s.Derive(2, 1).Uint64() {
		t.Fatal("label order ignored")
	}
}

func TestHash64Stable(t *testing.T) {
	s := New(11)
	h1 := s.Hash64(5, 6)
	s.Uint64()
	h2 := s.Hash64(5, 6)
	if h1 != h2 {
		t.Fatal("Hash64 not stable across stream consumption")
	}
}

// TestHashSplitIdentity pins the documented identities of the chaining
// helpers: wherever the label list is split, folding the head once and
// finishing with the tail gives Hash64 and HashPrefix of the whole list.
func TestHashSplitIdentity(t *testing.T) {
	f := func(seed, a, b, c uint64) bool {
		s := New(seed)
		return Hash64From(s.HashPrefix(a), b, c) == s.Hash64(a, b, c) &&
			Hash64From(HashPrefixFrom(s.HashPrefix(a), b), c) == s.Hash64(a, b, c) &&
			HashPrefixFrom(s.HashPrefix(), a, b) == s.HashPrefix(a, b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHashString(t *testing.T) {
	if HashString("telnet") == HashString("mqtt") {
		t.Fatal("distinct strings hashed equal")
	}
	if HashString("abc") != HashString("abc") {
		t.Fatal("HashString not deterministic")
	}
}

func TestFloat64Range(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		s := New(seed)
		for i := 0; i < 100; i++ {
			f := s.Float64()
			if f < 0 || f >= 1 {
				return false
			}
		}
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFloat64Mean(t *testing.T) {
	s := New(3)
	var sum float64
	const n = 100000
	for i := 0; i < n; i++ {
		sum += s.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("mean %f too far from 0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	s := New(4)
	seen := make(map[int]bool)
	for i := 0; i < 10000; i++ {
		v := s.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) = %d out of range", v)
		}
		seen[v] = true
	}
	if len(seen) != 7 {
		t.Fatalf("Intn(7) produced only %d distinct values", len(seen))
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestBoolProbability(t *testing.T) {
	s := New(5)
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if s.Bool(0.3) {
			hits++
		}
	}
	p := float64(hits) / n
	if math.Abs(p-0.3) > 0.01 {
		t.Fatalf("Bool(0.3) hit rate %f", p)
	}
}

func TestExpMean(t *testing.T) {
	s := New(6)
	var sum float64
	const n = 200000
	for i := 0; i < n; i++ {
		v := s.Exp(5)
		if v < 0 {
			t.Fatal("Exp returned negative value")
		}
		sum += v
	}
	mean := sum / n
	if math.Abs(mean-5) > 0.1 {
		t.Fatalf("Exp mean %f too far from 5", mean)
	}
}

func TestPermIsPermutation(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		s := New(seed)
		p := s.Perm(50)
		seen := make([]bool, 50)
		for _, v := range p {
			if v < 0 || v >= 50 || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestShufflePreservesElements(t *testing.T) {
	s := New(8)
	vals := []int{1, 2, 3, 4, 5, 6}
	sum := 0
	s.Shuffle(len(vals), func(i, j int) { vals[i], vals[j] = vals[j], vals[i] })
	for _, v := range vals {
		sum += v
	}
	if sum != 21 {
		t.Fatalf("shuffle lost elements: sum=%d", sum)
	}
}

func TestWeightedChoiceDistribution(t *testing.T) {
	s := New(9)
	weights := []float64{1, 0, 3}
	counts := make([]int, 3)
	const n = 100000
	for i := 0; i < n; i++ {
		counts[s.WeightedChoice(weights)]++
	}
	if counts[1] != 0 {
		t.Fatalf("zero-weight index selected %d times", counts[1])
	}
	ratio := float64(counts[2]) / float64(counts[0])
	if math.Abs(ratio-3) > 0.2 {
		t.Fatalf("weight ratio %f, want ~3", ratio)
	}
}

func TestWeightedChoicePanicsOnZeroTotal(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(1).WeightedChoice([]float64{0, 0})
}

func TestZipfianSkew(t *testing.T) {
	s := New(10)
	z := NewZipfian(100, 1.0)
	counts := make([]int, 100)
	const n = 100000
	for i := 0; i < n; i++ {
		counts[z.Sample(s)]++
	}
	if counts[0] <= counts[50] {
		t.Fatalf("rank 0 (%d) not more frequent than rank 50 (%d)", counts[0], counts[50])
	}
	// Under alpha=1 the head rank should carry roughly 1/H(100) ~ 19% of mass.
	frac := float64(counts[0]) / n
	if frac < 0.15 || frac > 0.25 {
		t.Fatalf("head rank mass %f outside [0.15, 0.25]", frac)
	}
}

func TestZipfSampleInRange(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		s := New(seed)
		v := s.Zipf(10, 1.2)
		return v >= 0 && v < 10
	}, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkUint64(b *testing.B) {
	s := New(1)
	for i := 0; i < b.N; i++ {
		s.Uint64()
	}
}

func BenchmarkHash64(b *testing.B) {
	s := New(1)
	for i := 0; i < b.N; i++ {
		s.Hash64(uint64(i), 7)
	}
}
