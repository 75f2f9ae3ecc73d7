// Package rng provides deterministic, splittable pseudo-random streams.
//
// Every simulated node owns an independent stream derived from a single
// master seed, so whole simulation runs are reproducible from one
// integer while nodes still randomize independently — the model in the
// paper assumes "nodes ... can independently generate random bits".
//
// The generator is xoshiro256★★ seeded via SplitMix64, the standard
// construction recommended by the xoshiro authors. Both are implemented
// here directly (stdlib-only constraint) and are far cheaper than
// math/rand's locked global source.
package rng

import (
	"math"
	"math/bits"
)

// Source is a xoshiro256★★ pseudo-random generator.
// It is not safe for concurrent use; give each goroutine its own stream.
type Source struct {
	s [4]uint64
}

// New returns a Source seeded from seed via SplitMix64.
func New(seed uint64) *Source {
	var src Source
	src.Reseed(seed)
	return &src
}

// Reseed reinitializes the source from seed.
func (r *Source) Reseed(seed uint64) {
	sm := seed
	for i := range r.s {
		sm, r.s[i] = splitMix64(sm)
	}
	// xoshiro must not start in the all-zero state.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9E3779B97F4A7C15
	}
}

// Split derives a new independent stream from r, keyed by id.
// Streams produced with distinct ids are statistically independent;
// Split does not perturb r's own state.
func (r *Source) Split(id uint64) *Source {
	src := r.SplitValue(id)
	return &src
}

// SplitValue is Split returning the stream by value, so a caller can
// lay many streams out in one slice instead of allocating each.
func (r *Source) SplitValue(id uint64) Source {
	var src Source
	src.Reseed(r.splitSeed(id))
	return src
}

// splitSeed is the seed of Split(id)'s stream. It mixes the parent
// state with the id, and Reseed runs the result through SplitMix64, so
// sibling streams decorrelate even for adjacent ids.
func (r *Source) splitSeed(id uint64) uint64 {
	return r.s[0] ^ bits.RotateLeft64(r.s[2], 17) ^ (id * 0xD1342543DE82EF95)
}

// Stream is a generator state held by value, for draw loops too hot
// for a *Source: a Stream in a local variable stays in registers,
// while Uint64 loads and stores its state through the pointer on every
// call. Step it with `u, st = st.Next()`.
type Stream struct{ s0, s1, s2, s3 uint64 }

// SplitStream returns the state Split(id) starts from, without
// allocating a Source: its Next calls yield exactly the sequence of
// Split(id).Uint64 calls.
func (r *Source) SplitStream(id uint64) Stream {
	src := r.SplitValue(id)
	return Stream{src.s[0], src.s[1], src.s[2], src.s[3]}
}

// Next returns the next 64 random bits and the stream after them: the
// xoshiro256★★ step of Uint64, written as one expression because that
// costs the inliner less, so callers that wrap Next still inline.
func (st Stream) Next() (uint64, Stream) {
	s2 := st.s2 ^ st.s0
	s3 := st.s3 ^ st.s1
	return bits.RotateLeft64(st.s1*5, 7) * 9,
		Stream{st.s0 ^ s3, st.s1 ^ s2, s2 ^ st.s1<<17, bits.RotateLeft64(s3, 45)}
}

// Uint64 returns the next 64 random bits.
func (r *Source) Uint64() uint64 {
	s := &r.s
	result := bits.RotateLeft64(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = bits.RotateLeft64(s[3], 45)
	return result
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(r.uint64n(uint64(n)))
}

// uint64n returns a uniform value in [0, n) using Lemire's
// multiply-shift rejection method.
func (r *Source) uint64n(n uint64) uint64 {
	hi, lo := bits.Mul64(r.Uint64(), n)
	if lo < n {
		thresh := -n % n
		for lo < thresh {
			hi, lo = bits.Mul64(r.Uint64(), n)
		}
	}
	return hi
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Source) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns a fair coin flip.
func (r *Source) Bool() bool {
	return r.Uint64()&1 == 1
}

// Bernoulli returns true with probability p (clamped to [0, 1]).
func (r *Source) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Coin is Bernoulli(p) for one fixed p, in integers. For 0 < p < 1 a
// toss draws u and lands heads iff u>>11 < ⌈p·2⁵³⌉, which is
// Bernoulli's test Float64() < p with both sides scaled by 2⁵³ (exact:
// u>>11 is an integer below 2⁵³, and scaling by a power of two is
// exact). For p ≤ 0 or p ≥ 1 a toss draws nothing, as Bernoulli does,
// and always lands tails or heads. So a coin consumes a stream exactly
// as Bernoulli(p) does, and lands the same way on every draw.
type Coin struct {
	thresh uint64 // heads iff the draw's top 53 bits fall below it
	draws  bool   // if false, heads iff thresh != 0, and nothing is drawn
}

// NewCoin returns the coin of Bernoulli(p).
func NewCoin(p float64) Coin {
	switch {
	case p <= 0:
		return Coin{}
	case p >= 1:
		return Coin{thresh: 1 << 53}
	}
	return Coin{thresh: uint64(math.Ceil(p * (1 << 53))), draws: true}
}

// Flip tosses c on st and returns the outcome and the stream after it.
func (c Coin) Flip(st Stream) (bool, Stream) {
	if !c.draws {
		return c.thresh != 0, st
	}
	u, st := st.Next()
	return u>>11 < c.thresh, st
}

// Toss tosses c on r: the outcome of r.Bernoulli(p), from the same
// draws.
func (r *Source) Toss(c Coin) bool {
	if !c.draws {
		return c.thresh != 0
	}
	return r.Uint64()>>11 < c.thresh
}

// OneIn returns true with probability 1/n. It panics if n <= 0.
// This mirrors the paper's pseudocode "if random(1, 2^j) == 1".
func (r *Source) OneIn(n int) bool {
	return r.Intn(n) == 0
}

// Perm returns a uniform random permutation of [0, n).
func (r *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := 1; i < n; i++ {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// WeightedChoice returns an index i with probability weights[i]/sum.
// Zero-weight entries are never chosen. It panics if the sum is not
// positive or any weight is negative.
//
// CSEEK part two uses this for density-weighted listener channel
// selection; the linear scan matches the pseudocode in Figure 1 and is
// fast enough for per-slot use at simulator scales (c ≤ a few hundred).
func (r *Source) WeightedChoice(weights []int64) int {
	var sum int64
	for _, w := range weights {
		if w < 0 {
			panic("rng: negative weight")
		}
		sum += w
	}
	if sum <= 0 {
		panic("rng: WeightedChoice with non-positive total weight")
	}
	target := int64(r.uint64n(uint64(sum)))
	for i, w := range weights {
		if target < w {
			return i
		}
		target -= w
	}
	// Unreachable: target < sum and the loop exhausts sum.
	panic("rng: WeightedChoice fell through")
}

// SampleK returns k distinct uniform values from [0, n) in unspecified
// order. It panics if k > n or k < 0.
func (r *Source) SampleK(n, k int) []int {
	if k < 0 || k > n {
		panic("rng: SampleK with k outside [0, n]")
	}
	if k == 0 {
		return nil
	}
	// Floyd's algorithm: O(k) expected time, no O(n) allocation.
	chosen := make(map[int]struct{}, k)
	out := make([]int, 0, k)
	for j := n - k; j < n; j++ {
		v := r.Intn(j + 1)
		if _, dup := chosen[v]; dup {
			v = j
		}
		chosen[v] = struct{}{}
		out = append(out, v)
	}
	return out
}

func splitMix64(state uint64) (next, out uint64) {
	state += 0x9E3779B97F4A7C15
	z := state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return state, z ^ (z >> 31)
}
