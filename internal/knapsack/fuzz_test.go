package knapsack

// Native Go fuzz targets. Arbitrary bytes decode into a Problem through
// fuzzReader (finite values only, bounded sizes), then:
//
//   - FuzzGreedy cross-checks the heap Solver against the reference scan
//     (bit-identical solutions and traces) and the feasibility contract.
//   - FuzzDynamicProgram cross-checks DynamicProgram against BruteForce
//     (never above the exact optimum, always feasible).
//
// Neither target may panic on any input. Seed corpora live under
// testdata/fuzz/<Target>/ and `make fuzz-smoke` runs each target briefly.

import (
	"math/rand"
	"testing"
)

// fuzzReader deterministically consumes bytes; exhausted input reads as 0.
type fuzzReader struct {
	data []byte
	pos  int
}

func (r *fuzzReader) byte() byte {
	if r.pos >= len(r.data) {
		return 0
	}
	b := r.data[r.pos]
	r.pos++
	return b
}

func (r *fuzzReader) u16() uint16 {
	return uint16(r.byte())<<8 | uint16(r.byte())
}

// signed returns a finite float in [-512, 512) with a 1/64 grid, so exact
// ties between items are common (the interesting case for tie-breaking).
func (r *fuzzReader) signed() float64 { return float64(int16(r.u16())) / 64 }

// unsigned returns a finite float in [0, 256) with a 1/256 grid.
func (r *fuzzReader) unsigned() float64 { return float64(r.u16()) / 256 }

// decodeProblem builds a bounded, finite Problem from arbitrary bytes.
// Weights are arbitrary nonnegative (non-monotone allowed) unless
// monotoneWeights is set, which sorts each ladder into the non-decreasing
// shape BruteForce's cap pruning assumes.
func decodeProblem(r *fuzzReader, maxItems, maxLevels int, monotoneWeights bool) *Problem {
	n := 1 + int(r.byte())%maxItems
	items := make([]Item, n)
	for i := range items {
		levels := 1 + int(r.byte())%maxLevels
		values := make([]float64, levels)
		weights := make([]float64, levels)
		for l := 0; l < levels; l++ {
			values[l] = r.signed()
			weights[l] = r.unsigned()
			if monotoneWeights && l > 0 && weights[l] < weights[l-1] {
				weights[l] = weights[l-1] + r.unsigned()/16
			}
		}
		items[i] = Item{Values: values, Weights: weights, Cap: r.unsigned()}
	}
	return &Problem{Items: items, Budget: r.unsigned() * float64(n)}
}

func FuzzGreedy(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 2, 0, 64, 0, 0, 1, 0, 0, 128})
	f.Add([]byte("knapsack-greedy-seed"))
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 4; i++ {
		raw := make([]byte, 8+rng.Intn(64))
		rng.Read(raw)
		f.Add(raw)
	}
	var s Solver
	f.Fuzz(func(t *testing.T, data []byte) {
		p := decodeProblem(&fuzzReader{data: data}, 8, 6, false)
		if err := p.Validate(); err != nil {
			t.Fatalf("decoder produced invalid problem: %v", err)
		}
		var refTr, gotTr CombinedTrace
		ref := p.ReferenceCombinedTraced(&refTr)
		got := s.CombinedTraced(p, &gotTr)
		equalSolutions(t, ref, got, "fuzz combined")
		equalPassTraces(t, refTr.Density, gotTr.Density, "fuzz density trace")
		equalPassTraces(t, refTr.Value, gotTr.Value, "fuzz value trace")
		if refTr.Picked != gotTr.Picked {
			t.Fatalf("picked %v != reference %v", gotTr.Picked, refTr.Picked)
		}
		checkFeasible(t, p, got, "fuzz solver")
		equalSolutions(t, p.ReferenceDensityGreedy(), s.DensityGreedy(p), "fuzz density")
		equalSolutions(t, p.ReferenceValueGreedy(), s.ValueGreedy(p), "fuzz value")
	})
}

func FuzzDynamicProgram(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{2, 2, 0, 64, 0, 32, 1, 3, 0, 200})
	f.Add([]byte("knapsack-dp-seed"))
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 4; i++ {
		raw := make([]byte, 8+rng.Intn(48))
		rng.Read(raw)
		f.Add(raw)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r := &fuzzReader{data: data}
		resolution := r.unsigned() / 16 // 0 selects the default grid
		p := decodeProblem(r, 5, 4, true)
		dp := p.DynamicProgram(resolution)
		checkFeasible(t, p, dp, "fuzz dp")
		opt := p.BruteForce()
		checkFeasible(t, p, opt, "fuzz bruteforce")
		if dp.Value > opt.Value+1e-9 {
			t.Fatalf("DP %v above brute-force optimum %v (resolution %v)\nproblem: %+v",
				dp.Value, opt.Value, resolution, p)
		}
	})
}
