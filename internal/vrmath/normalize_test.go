package vrmath

import (
	"math"
	"math/rand"
	"testing"
)

// modNormalizeAngle is NormalizeAngle as a plain math.Mod wrap, the
// reference the in-range fast path must reproduce bit for bit.
func modNormalizeAngle(a float64) float64 {
	a = math.Mod(a+180, 360)
	if a < 0 {
		a += 360
	}
	return a - 180
}

func TestNormalizeAngleMatchesModBits(t *testing.T) {
	inputs := []float64{
		0, math.Copysign(0, -1), 180, -180, 540, -540, 360, -360, 179.99999999999997,
		-180.00000000000003, 1e300, -1e300, math.MaxFloat64, math.SmallestNonzeroFloat64,
		math.NaN(), math.Inf(1), math.Inf(-1),
	}
	rng := rand.New(rand.NewSource(29))
	for i := 0; i < 20000; i++ {
		switch i % 3 {
		case 0:
			inputs = append(inputs, (rng.Float64()-0.5)*400)
		case 1:
			inputs = append(inputs, (rng.Float64()-0.5)*4000)
		default:
			inputs = append(inputs, rng.NormFloat64()*1e6)
		}
	}
	for _, a := range inputs {
		got, want := NormalizeAngle(a), modNormalizeAngle(a)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("NormalizeAngle(%v) = %v (%#x), Mod wrap %v (%#x)",
				a, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
}

func BenchmarkNormalizeAngle(b *testing.B) {
	angles := [...]float64{-179.5, -12.25, 0, 33.5, 179.75, 190, -540, 725}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		angleSink = NormalizeAngle(angles[i&7])
	}
}

// angleSink keeps the compiler from discarding measured calls.
var angleSink float64
