package tiles

import (
	"math"
	"math/rand"
	"testing"
)

// TestRateTableIntoMatchesSelectionRateBits checks that the level-hoisted
// RateTableInto equals SelectionRate at every level bit for bit, across
// seeds, spreads, cells and selections (empty, repeated and full).
func TestRateTableIntoMatchesSelectionRateBits(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	table := make([]float64, Levels)
	for trial := 0; trial < 2000; trial++ {
		m := &SizeModel{Spread: []float64{0, 0.1, 0.25, 0.4}[trial%4], Seed: rng.Uint64()}
		cell := CellID{X: int32(rng.Intn(2001) - 1000), Z: int32(rng.Intn(2001) - 1000)}
		sel := make([]TileID, rng.Intn(2*NumTiles+1))
		for i := range sel {
			sel[i] = TileID(rng.Intn(NumTiles))
		}
		m.RateTableInto(table, cell, sel)
		for q := 1; q <= Levels; q++ {
			want := m.SelectionRate(cell, sel, q)
			if math.Float64bits(table[q-1]) != math.Float64bits(want) {
				t.Fatalf("seed %d cell %v sel %v level %d: RateTableInto %v, SelectionRate %v",
					m.Seed, cell, sel, q, table[q-1], want)
			}
		}
	}
}

func TestRateTableIntoZeroAllocs(t *testing.T) {
	m := NewSizeModel(3)
	table := make([]float64, Levels)
	sel := []TileID{0, 1, 3}
	if avg := testing.AllocsPerRun(100, func() { m.RateTableInto(table, CellID{5, -2}, sel) }); avg != 0 {
		t.Errorf("RateTableInto allocates %.2f allocs/op, want 0", avg)
	}
}

func BenchmarkRateTableInto(b *testing.B) {
	m := NewSizeModel(3)
	table := make([]float64, Levels)
	sel := []TileID{0, 1, 3}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.RateTableInto(table, CellID{X: int32(i & 63), Z: -2}, sel)
	}
}
