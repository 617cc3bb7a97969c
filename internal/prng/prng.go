// Package prng provides a deterministic, splittable pseudo-random number
// generator and sampling helpers used by every simulation substrate in this
// repository.
//
// Reproducibility is a hard requirement: the simulated Internet population,
// the attack month, and the telescope traffic must be byte-identical across
// runs for a given seed so that experiments can be compared against the
// paper's published tables. The generator is a SplitMix64 core (Steele et
// al., "Fast Splittable Pseudorandom Number Generators") which passes BigCrush
// for the bit widths we consume and — crucially — supports cheap derivation
// of independent streams, letting us compute per-IP host configurations
// lazily without materializing billions of hosts.
package prng

import (
	"math"
	"sync"
)

// golden is the 64-bit golden-ratio increment used by SplitMix64.
const golden = 0x9e3779b97f4a7c15

// Source is a deterministic SplitMix64 random source. The zero value is a
// valid generator seeded with 0; use New or Derive for independent streams.
type Source struct {
	seed  uint64 // immutable: the root of Derive/Hash64 streams
	state uint64 // advanced by Uint64
}

// New returns a Source seeded with seed.
func New(seed uint64) *Source {
	return &Source{seed: seed, state: seed}
}

// Reseed resets the source in place so its stream is identical to New(seed).
// Hot loops that consume one short-lived stream per work item (the attack
// replay runs one per event) reuse a single Source this way instead of
// allocating a fresh generator each time.
func (s *Source) Reseed(seed uint64) {
	s.seed = seed
	s.state = seed
}

// State returns the source's stream position for checkpointing. Together
// with the seed (which callers already know — it is part of the run config)
// it fully determines the remaining stream: SetState(State()) is a no-op.
func (s *Source) State() uint64 { return s.state }

// SetState repositions the stream without touching the seed, so Derive and
// Hash64 children are unaffected. Used on resume to continue a consumed
// stream exactly where a checkpoint left it.
func (s *Source) SetState(state uint64) { s.state = state }

// mix is the SplitMix64 output function.
func mix(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Uint64 returns the next 64 random bits.
func (s *Source) Uint64() uint64 {
	s.state += golden
	return mix(s.state)
}

// Derive returns a new independent Source whose stream is a pure function of
// the parent seed and the label values. Deriving with the same labels always
// yields the same stream, regardless of how much of the parent stream has
// been consumed. This is what makes lazy per-IP host generation possible.
func (s *Source) Derive(labels ...uint64) *Source {
	h := s.seed
	for _, l := range labels {
		h = mix(h ^ (l + golden))
	}
	return &Source{seed: h, state: h}
}

// Hash64 returns a stable 64-bit hash of the labels under this source's seed
// without creating a new Source. It is the allocation-free sibling of Derive
// for one-shot decisions (e.g. "does a host exist at this IP?").
func (s *Source) Hash64(labels ...uint64) uint64 {
	h := s.seed
	for _, l := range labels {
		h = mix(h ^ (l + golden))
	}
	return mix(h + golden)
}

// HashPrefix folds labels into the intermediate chaining value Hash64 would
// carry after the same labels. Callers hashing many values that share a
// common label prefix (the exposure walk hashes every address against every
// protocol) fold the prefix once and finish each hash with Hash64From.
func (s *Source) HashPrefix(labels ...uint64) uint64 {
	return HashPrefixFrom(s.seed, labels...)
}

// HashPrefixFrom extends a HashPrefix chaining value by more labels; for any
// split of the label list, HashPrefixFrom(HashPrefix(a...), b...) ==
// HashPrefix(a..., b...). A constant label folded once and extended per
// value costs one mix less per hash than refolding it every time.
func HashPrefixFrom(h uint64, labels ...uint64) uint64 {
	for _, l := range labels {
		h = mix(h ^ (l + golden))
	}
	return h
}

// Hash64From completes a Hash64 from a HashPrefix chaining value; for any
// split of the label list, Hash64From(HashPrefix(a...), b...) ==
// Hash64(a..., b...).
func Hash64From(h uint64, labels ...uint64) uint64 {
	return mix(HashPrefixFrom(h, labels...) + golden)
}

// HashString folds a string label into a uint64 suitable for Derive/Hash64.
func HashString(str string) uint64 {
	// FNV-1a 64-bit; stable and stdlib-free of imports.
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(str); i++ {
		h ^= uint64(str[i])
		h *= prime
	}
	return h
}

// Float64 returns a uniform float64 in [0, 1).
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("prng: Intn with non-positive n")
	}
	return int(s.Uint64() % uint64(n))
}

// Uint32 returns 32 random bits.
func (s *Source) Uint32() uint32 {
	return uint32(s.Uint64() >> 32)
}

// Bool returns true with probability p.
func (s *Source) Bool(p float64) bool {
	return s.Float64() < p
}

// Exp returns an exponentially distributed float64 with the given mean.
// It is used for inter-arrival times in the attack scheduler.
func (s *Source) Exp(mean float64) float64 {
	u := s.Float64()
	if u <= 0 {
		u = math.SmallestNonzeroFloat64
	}
	return -mean * math.Log(u)
}

// Perm returns a random permutation of [0, n).
func (s *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		j := s.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// Shuffle permutes the first n elements using the provided swap function.
func (s *Source) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		swap(i, j)
	}
}

// WeightedChoice selects an index in [0, len(weights)) with probability
// proportional to weights[i]. Zero or negative weights are never selected.
// It panics if the total weight is not positive.
func (s *Source) WeightedChoice(weights []float64) int {
	var total float64
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	if total <= 0 {
		panic("prng: WeightedChoice with non-positive total weight")
	}
	target := s.Float64() * total
	for i, w := range weights {
		if w <= 0 {
			continue
		}
		target -= w
		if target < 0 {
			return i
		}
	}
	// Floating-point slack: fall back to the last positive weight.
	for i := len(weights) - 1; i >= 0; i-- {
		if weights[i] > 0 {
			return i
		}
	}
	panic("prng: unreachable")
}

// Zipf samples from a Zipf distribution over [0, n) with exponent alpha > 0.
// Rank 0 is the most probable outcome. It uses the inverse-CDF over the
// precomputed table when called through a Zipfian, but this convenience
// method recomputes the normalizer and is intended for small n.
func (s *Source) Zipf(n int, alpha float64) int {
	k := zipfKey{n: n, alpha: alpha}
	if z, ok := zipfCache.Load(k); ok {
		return z.(*Zipfian).Sample(s)
	}
	z := NewZipfian(n, alpha)
	zipfCache.Store(k, z)
	return z.Sample(s)
}

// zipfCache memoizes the (deterministic) CDF tables: the campaign hot path
// draws from a handful of fixed (n, alpha) shapes millions of times, and
// rebuilding the table costs n Pow calls plus an allocation per draw.
type zipfKey struct {
	n     int
	alpha float64
}

var zipfCache sync.Map

// Zipfian is a precomputed Zipf sampler over ranks [0, n).
type Zipfian struct {
	cdf []float64
}

// NewZipfian builds a Zipf sampler with n ranks and exponent alpha.
func NewZipfian(n int, alpha float64) *Zipfian {
	if n <= 0 {
		panic("prng: NewZipfian with non-positive n")
	}
	cdf := make([]float64, n)
	var total float64
	for i := 0; i < n; i++ {
		total += 1 / math.Pow(float64(i+1), alpha)
		cdf[i] = total
	}
	for i := range cdf {
		cdf[i] /= total
	}
	return &Zipfian{cdf: cdf}
}

// Sample draws a rank from the distribution using src.
func (z *Zipfian) Sample(src *Source) int {
	u := src.Float64()
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Alias is a Walker/Vose alias sampler: O(n) to build, O(1) per sample with
// a single Uint64 draw. It replaces the Zipfian binary search on hot paths
// where millions of draws share one distribution (the darknet generator's
// per-source packet skew).
type Alias struct {
	prob  []float64 // acceptance threshold per column
	alias []int32   // fallback rank per column
}

// NewAlias builds an alias sampler over the given weights. Weights must be
// non-negative with a positive total.
func NewAlias(weights []float64) *Alias {
	n := len(weights)
	if n == 0 {
		panic("prng: NewAlias with no weights")
	}
	var total float64
	for _, w := range weights {
		if w < 0 {
			panic("prng: NewAlias with negative weight")
		}
		total += w
	}
	if total <= 0 {
		panic("prng: NewAlias with non-positive total weight")
	}
	a := &Alias{prob: make([]float64, n), alias: make([]int32, n)}
	// Vose's method: split columns into under- and over-full relative to the
	// uniform height, then pair each under-full column with an over-full one.
	scaled := make([]float64, n)
	small := make([]int32, 0, n)
	large := make([]int32, 0, n)
	for i, w := range weights {
		scaled[i] = w * float64(n) / total
		if scaled[i] < 1 {
			small = append(small, int32(i))
		} else {
			large = append(large, int32(i))
		}
	}
	for len(small) > 0 && len(large) > 0 {
		s := small[len(small)-1]
		small = small[:len(small)-1]
		l := large[len(large)-1]
		large = large[:len(large)-1]
		a.prob[s] = scaled[s]
		a.alias[s] = l
		scaled[l] -= 1 - scaled[s]
		if scaled[l] < 1 {
			small = append(small, l)
		} else {
			large = append(large, l)
		}
	}
	for _, i := range large {
		a.prob[i] = 1
	}
	for _, i := range small {
		a.prob[i] = 1 // numerical leftovers
	}
	return a
}

// NewZipfAlias builds an alias sampler over Zipf weights rank^-alpha for
// ranks [0, n). Weights are accumulated multiplicatively — the step ratio
// (1+1/r)^-alpha is expanded as a four-term binomial series once r is large
// enough — so the build costs a handful of multiplies per rank instead of a
// math.Pow call. The truncation error is below 4e-8 per step and sums to
// under 1e-6 across table sizes in the millions, orders of magnitude finer
// than any statistic the generated traffic is read for.
func NewZipfAlias(n int, alpha float64) *Alias {
	if n <= 0 {
		panic("prng: NewZipfAlias with non-positive n")
	}
	c2 := alpha * (alpha + 1) / 2
	c3 := c2 * (alpha + 2) / 3
	c4 := c3 * (alpha + 3) / 4
	weights := make([]float64, n)
	w := 1.0
	weights[0] = 1
	for i := 1; i < n; i++ {
		if i < 32 {
			w = math.Pow(float64(i+1), -alpha) // exact head, where 1/i is large
		} else {
			x := 1 / float64(i)
			w *= 1 + x*(-alpha+x*(c2+x*(-c3+x*c4)))
		}
		weights[i] = w
	}
	return NewAlias(weights)
}

// Sample draws a rank using a single Uint64 from src: the high bits pick a
// column, the low bits flip the biased accept/alias coin.
func (a *Alias) Sample(src *Source) int {
	u := src.Uint64()
	i := int((u >> 32) % uint64(len(a.prob)))
	if float64(uint32(u))/(1<<32) < a.prob[i] {
		return i
	}
	return int(a.alias[i])
}
