package rng

import (
	"math"
	"math/rand"
	"testing"
)

// edgeSeeds are the seeds where math/rand's seed reduction branches: zero
// and the multiples of 2³¹−1 (replaced by 89482311), 89482311 itself,
// negatives (shifted up by the modulus), and the int64 extremes.
var edgeSeeds = []int64{
	0, 1, -1, 2, 42, zeroSeed, -zeroSeed,
	modulus, -modulus, 2 * modulus, -2 * modulus, modulus - 1, modulus + 1, -(modulus - 1),
	1 << 31, -(1 << 31), 1 << 62,
	math.MaxInt64, math.MinInt64, math.MinInt64 + 1,
	0x5EED, 2654435761 + 1,
}

// draws covers several full turns of the 607-word register, so the tap
// and feed indices wrap more than once.
const draws = 3 * length

// sameStream fails unless Source and math/rand's source emit the same n
// values after seeding with seed.
func sameStream(tb testing.TB, seed int64, n int) {
	tb.Helper()
	got := NewSource(seed)
	want := rand.NewSource(seed).(rand.Source64)
	for i := 0; i < n; i++ {
		if g, w := got.Uint64(), want.Uint64(); g != w {
			tb.Fatalf("seed %d: draw %d = %#x, math/rand %#x", seed, i, g, w)
		}
	}
}

func TestEdgeSeedsMatchMathRand(t *testing.T) {
	for _, seed := range edgeSeeds {
		sameStream(t, seed, draws)
	}
}

func TestRandomSeedsMatchMathRand(t *testing.T) {
	seeds := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		sameStream(t, seeds.Int63()-seeds.Int63(), length+100)
	}
}

// TestInt63MatchesMathRand checks the masked path rand.Rand takes for
// Float64, Intn and the other Int63-derived draws.
func TestInt63MatchesMathRand(t *testing.T) {
	for _, seed := range edgeSeeds {
		got, want := NewSource(seed), rand.NewSource(seed)
		for i := 0; i < draws; i++ {
			if g, w := got.Int63(), want.Int63(); g != w {
				t.Fatalf("seed %d: Int63 draw %d = %d, math/rand %d", seed, i, g, w)
			}
		}
	}
}

// TestRandMethodsMatchMathRand drives every *rand.Rand method the tree
// calls, interleaved, through both sources: the methods differ in how many
// source words they consume and whether they use Int63 or Uint64.
func TestRandMethodsMatchMathRand(t *testing.T) {
	for _, seed := range edgeSeeds {
		got, want := New(seed), rand.New(rand.NewSource(seed))
		for i := 0; i < draws/4; i++ {
			check := func(method string, g, w any) {
				if g != w {
					t.Fatalf("seed %d round %d: %s = %v, math/rand %v", seed, i, method, g, w)
				}
			}
			check("Float64", got.Float64(), want.Float64())
			check("NormFloat64", got.NormFloat64(), want.NormFloat64())
			check("ExpFloat64", got.ExpFloat64(), want.ExpFloat64())
			check("Intn", got.Intn(1+i), want.Intn(1+i))
			check("Intn(1<<40)", got.Intn(1<<40), want.Intn(1<<40))
			check("Int63", got.Int63(), want.Int63())
			check("Int63n", got.Int63n(int64(7+i)), want.Int63n(int64(7+i)))
			check("Int31n", got.Int31n(int32(3+i)), want.Int31n(int32(3+i)))
			check("Uint32", got.Uint32(), want.Uint32())
			check("Uint64", got.Uint64(), want.Uint64())
			check("Float32", got.Float32(), want.Float32())
		}
		gp, wp := got.Perm(50), want.Perm(50)
		for i := range gp {
			if gp[i] != wp[i] {
				t.Fatalf("seed %d: Perm[%d] = %d, math/rand %d", seed, i, gp[i], wp[i])
			}
		}
		gb, wb := make([]byte, 37), make([]byte, 37)
		got.Read(gb)
		want.Read(wb)
		if string(gb) != string(wb) {
			t.Fatalf("seed %d: Read %x, math/rand %x", seed, gb, wb)
		}
	}
}

// TestReseedMatchesMathRand reseeds a source that has already drawn past a
// register wrap: Seed must reset tap and feed as well as the words.
func TestReseedMatchesMathRand(t *testing.T) {
	got, want := NewSource(3), rand.NewSource(3).(rand.Source64)
	for i := 0; i < length+5; i++ {
		got.Uint64()
		want.Uint64()
	}
	for _, seed := range edgeSeeds {
		got.Seed(seed)
		want.Seed(seed)
		for i := 0; i < length+5; i++ {
			if g, w := got.Uint64(), want.Uint64(); g != w {
				t.Fatalf("reseed %d: draw %d = %#x, math/rand %#x", seed, i, g, w)
			}
		}
	}
}

// TestMulModMatchesSchrage pins the Mersenne reduction against math/rand's
// Schrage step at the ends of its domain.
func TestMulModMatchesSchrage(t *testing.T) {
	for _, x := range []uint64{1, 2, multiplier, zeroSeed, modulus / 2, modulus - 2, modulus - 1} {
		if got, want := mulMod(multiplier, x), x*multiplier%modulus; got != want {
			t.Errorf("mulMod(48271, %d) = %d, want %d", x, got, want)
		}
		if got, want := mulMod(modulus-1, x), (modulus-1)*x%modulus; got != want {
			t.Errorf("mulMod(2^31-2, %d) = %d, want %d", x, got, want)
		}
	}
}

// FuzzSourceMatchesMathRand checks any seed over a stream long enough to
// wrap the register.
func FuzzSourceMatchesMathRand(f *testing.F) {
	for _, seed := range edgeSeeds {
		f.Add(seed, uint16(length+1))
	}
	f.Fuzz(func(t *testing.T, seed int64, n uint16) {
		sameStream(t, seed, int(n)%(2*length)+length)
	})
}

var sink rand.Source

func BenchmarkNewSource(b *testing.B) {
	b.Run("rng", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sink = NewSource(int64(i))
		}
	})
	b.Run("math-rand", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sink = rand.NewSource(int64(i))
		}
	})
}
