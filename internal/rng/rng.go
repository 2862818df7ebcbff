// Package rng is the tree's one seeded random source. Source runs math/rand's
// additive lagged-Fibonacci generator (length 607, tap 273) and returns the
// identical stream for every seed, so rand.New(NewSource(seed)) draws exactly
// what rand.New(rand.NewSource(seed)) draws from every *rand.Rand method.
//
// What differs is the seeding. math/rand fills its 607 state words from one
// Lehmer chain x[n+1] = 48271·x[n] mod (2³¹−1), stepped 1,841 times in
// series. Source computes each chain value directly as 48271^k·x₀ mod
// (2³¹−1) from a power table built at init, so the state words no longer
// depend on each other and NewSource runs about three times faster. Every
// per-session trace, fault and loss model seeds one of these, so session
// set-up is where the saving lands.
package rng

import "math/rand"

const (
	length = 607 // state words (math/rand's rngLen)
	tap    = 273 // lag of the second tap (math/rand's rngTap)
	mask   = 1<<63 - 1

	// modulus is the Lehmer generator's 2³¹−1. It is a Mersenne prime, so
	// a product reduces with a shift, a mask and one conditional subtract.
	modulus    = 1<<31 - 1
	multiplier = 48271
	// warmup is how many chain steps math/rand's Seed discards before it
	// fills the first state word; each word then takes the next three.
	warmup = 20
	// zeroSeed replaces a seed that is 0 mod 2³¹−1, as in math/rand.
	zeroSeed = 89482311
)

// pow[i][j] is 48271^(warmup+1+3i+j) mod (2³¹−1): the multiplier that takes
// the reduced seed to the j-th of the three chain values state word i is
// built from.
var pow [length][3]uint32

func init() {
	x := uint64(1)
	for i := 0; i < warmup; i++ {
		x = x * multiplier % modulus
	}
	for i := range pow {
		for j := range pow[i] {
			x = x * multiplier % modulus
			pow[i][j] = uint32(x)
		}
	}
}

// mulMod returns a·b mod (2³¹−1) for a, b in [1, 2³¹−1). Because 2³¹ ≡ 1,
// the product's high bits and its low 31 bits sum to a congruent value of
// at most 2·(2³¹−1). That sum is never a multiple of the prime modulus, so
// one conditional subtract lands it in [1, 2³¹−1).
func mulMod(a, b uint64) uint64 {
	t := a * b
	r := t&modulus + t>>31
	if r >= modulus {
		r -= modulus
	}
	return r
}

// Source is math/rand's generator with chain-free seeding. It implements
// rand.Source64. Like math/rand's sources it is not safe for concurrent
// use; a zero Source must be seeded before use.
type Source struct {
	tap  int // index into vec
	feed int // index into vec
	vec  [length]int64
}

var _ rand.Source64 = (*Source)(nil)

// NewSource returns a Source seeded with seed: the stream of
// rand.NewSource(seed).
func NewSource(seed int64) *Source {
	s := new(Source)
	s.Seed(seed)
	return s
}

// New returns a *rand.Rand drawing from NewSource(seed): the drop-in
// replacement for rand.New(rand.NewSource(seed)).
func New(seed int64) *rand.Rand {
	return rand.New(NewSource(seed))
}

// Seed resets the generator to the state math/rand's Seed(seed) produces.
func (s *Source) Seed(seed int64) {
	s.tap = 0
	s.feed = length - tap

	seed %= modulus
	if seed < 0 {
		seed += modulus
	}
	if seed == 0 {
		seed = zeroSeed
	}
	x := uint64(seed)
	for i := range s.vec {
		p := &pow[i]
		u := int64(mulMod(uint64(p[0]), x)) << 40
		u ^= int64(mulMod(uint64(p[1]), x)) << 20
		u ^= int64(mulMod(uint64(p[2]), x))
		s.vec[i] = u ^ cooked[i]
	}
}

// Int63 returns a non-negative pseudo-random 63-bit integer as an int64.
func (s *Source) Int63() int64 {
	return int64(s.Uint64() & mask)
}

// Uint64 returns a pseudo-random 64-bit value as a uint64.
func (s *Source) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += length
	}
	s.feed--
	if s.feed < 0 {
		s.feed += length
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}
