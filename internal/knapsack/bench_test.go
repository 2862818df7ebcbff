package knapsack

import (
	"fmt"
	"math/rand"
	"testing"
)

// benchLadderProblem builds a representative per-slot instance: the
// Fibonacci-ish rate ladder of the content size model, concave values, a
// per-item cap drawn around the ladder's midpoint, and a shared budget of
// 36 Mbps per user (the paper's provisioning).
func benchLadderProblem(rng *rand.Rand, n int) *Problem {
	ladder := []float64{8, 13, 21, 34, 55, 89}
	items := make([]Item, n)
	for i := range items {
		scale := 0.6 + rng.Float64()
		values := make([]float64, len(ladder))
		weights := make([]float64, len(ladder))
		dv := 1 + rng.Float64()*2
		v := 0.0
		for l := range ladder {
			v += dv
			dv *= 0.5 + rng.Float64()*0.4
			values[l] = v
			weights[l] = ladder[l] * scale
		}
		items[i] = Item{Values: values, Weights: weights, Cap: 20 + rng.Float64()*80}
	}
	return &Problem{Items: items, Budget: 36 * float64(n)}
}

// BenchmarkSolveHeap measures the steady-state heap solver per slot solve;
// allocs/op must be 0 at every size.
func BenchmarkSolveHeap(b *testing.B) {
	for _, n := range []int{5, 30, 200, 1000} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			p := benchLadderProblem(rand.New(rand.NewSource(int64(n))), n)
			var s Solver
			s.Combined(p) // warm scratch
			b.ReportAllocs()
			b.ResetTimer()
			var value float64
			for i := 0; i < b.N; i++ {
				value = s.Combined(p).Value
			}
			b.ReportMetric(value, "objective")
		})
	}
}

// BenchmarkSolveHeapCounterfactual measures the traced heap solver with
// top-K alternative capture on and off at each size. The acceptance gate is
// K=3 at N=1000: capture must stay within 10% of the capture-off traced
// solve, and both must report 0 allocs/op.
func BenchmarkSolveHeapCounterfactual(b *testing.B) {
	for _, n := range []int{30, 1000} {
		for _, k := range []int{0, 3} {
			b.Run(fmt.Sprintf("N=%d/K=%d", n, k), func(b *testing.B) {
				p := benchLadderProblem(rand.New(rand.NewSource(int64(n))), n)
				var s Solver
				var tr CombinedTrace
				tr.Density.TopK, tr.Value.TopK = k, k
				s.CombinedTraced(p, &tr) // warm scratch
				b.ReportAllocs()
				b.ResetTimer()
				var value float64
				for i := 0; i < b.N; i++ {
					tr.Density.Rejections = tr.Density.Rejections[:0]
					tr.Value.Rejections = tr.Value.Rejections[:0]
					value = s.CombinedTraced(p, &tr).Value
				}
				b.ReportMetric(value, "objective")
			})
		}
	}
}

// BenchmarkSolveReference measures the original rescan engine on the same
// instances — the baseline the heap rewrite is judged against.
func BenchmarkSolveReference(b *testing.B) {
	for _, n := range []int{5, 30, 200, 1000} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			p := benchLadderProblem(rand.New(rand.NewSource(int64(n))), n)
			b.ReportAllocs()
			b.ResetTimer()
			var value float64
			for i := 0; i < b.N; i++ {
				value = p.ReferenceCombined().Value
			}
			b.ReportMetric(value, "objective")
		})
	}
}
