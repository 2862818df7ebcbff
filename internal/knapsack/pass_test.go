package knapsack

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// Differential tests for the Solver's pass structure (first upgrades sorted
// once, re-queued upgrades on a heap, negative scores kept aside) against
// the reference rescan, on the inputs that structure is sensitive to:
// score ties across many items, signed zeros, all-negative first upgrades,
// sizes either side of sortCutoff, and counterfactual capture with
// negative entries still pending.

// referenceAlternatives is the counterfactual oracle: the reference rescan
// of one pass, recording every quality_verification rejection and, when
// the pass stops on a negative score, every still-active item's next
// upgrade — the set the Solver's TopK capture ranks, built here in a
// different order.
func referenceAlternatives(p *Problem, kind greedyKind, k int) []Alternative {
	levels := make([]int, len(p.Items))
	active := make([]bool, len(p.Items))
	var weight float64
	for i := range p.Items {
		levels[i] = 1
		weight += p.Items[i].Weights[0]
		active[i] = p.Items[i].Levels() > 1
	}
	var alts []Alternative
	for {
		best, bestScore := -1, 0.0
		for i := range p.Items {
			if !active[i] {
				continue
			}
			score := upgradeScore(&p.Items[i], levels[i], kind)
			if betterCandidate(score, i, bestScore, best) {
				best, bestScore = i, score
			}
		}
		if best == -1 {
			return alts
		}
		if bestScore < 0 {
			for i := range p.Items {
				if active[i] {
					it := &p.Items[i]
					l := levels[i]
					alts = insertTopK(alts, k, Alternative{
						Item: i, Level: l + 1, Score: upgradeScore(it, l, kind),
						Gain: it.Values[l] - it.Values[l-1], Reason: RejectUnprofitable,
					})
				}
			}
			return alts
		}
		it := &p.Items[best]
		old := levels[best]
		dw := it.Weights[old] - it.Weights[old-1]
		weight += dw
		if capViolated := it.Weights[old] > it.Cap; capViolated || weight > p.Budget {
			reason := RejectBudget
			if capViolated {
				reason = RejectItemCap
			}
			alts = insertTopK(alts, k, Alternative{
				Item: best, Level: old + 1, Score: bestScore,
				Gain: it.Values[old] - it.Values[old-1], Reason: reason,
			})
			weight -= dw
			active[best] = false
			continue
		}
		levels[best] = old + 1
		if levels[best] == it.Levels() {
			active[best] = false
		}
	}
}

// equalAlternativeBits asserts identical alternatives, comparing Score and
// Gain bit for bit (so -0 and +0 differ).
func equalAlternativeBits(t *testing.T, who string, want, got []Alternative) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d alternatives %+v, want %d %+v", who, len(got), got, len(want), want)
	}
	for i := range want {
		w, g := want[i], got[i]
		if w.Item != g.Item || w.Level != g.Level || w.Reason != g.Reason ||
			math.Float64bits(w.Score) != math.Float64bits(g.Score) ||
			math.Float64bits(w.Gain) != math.Float64bits(g.Gain) {
			t.Fatalf("%s: alternative %d = %+v, want %+v", who, i, g, w)
		}
	}
}

// checkPassesAgainstReference runs Combined with TopK = k on s and
// requires the solution, both pass traces, Picked and both passes'
// alternatives to match the reference rescan and its oracle.
func checkPassesAgainstReference(t *testing.T, s *Solver, p *Problem, k int, who string) {
	t.Helper()
	var ref, got CombinedTrace
	got.Density.TopK, got.Value.TopK = k, k
	want := p.ReferenceCombinedTraced(&ref)
	sol := s.CombinedTraced(p, &got)
	equalSolutions(t, want, sol, who)
	equalPassTraces(t, ref.Density, got.Density, who+"/density")
	equalPassTraces(t, ref.Value, got.Value, who+"/value")
	if ref.Picked != got.Picked {
		t.Fatalf("%s: picked %v, reference %v", who, got.Picked, ref.Picked)
	}
	if k > 0 {
		equalAlternativeBits(t, who+"/density alternatives",
			referenceAlternatives(p, byDensity, k), got.Density.Alternatives)
		equalAlternativeBits(t, who+"/value alternatives",
			referenceAlternatives(p, byValue, k), got.Value.Alternatives)
	}
}

// TestSortedPassEqualFirstScores: every item's first upgrade has the same
// score, at sizes on both sort paths, so the pop order among them is
// decided by the item tie-break alone (the radix sort must be stable).
func TestSortedPassEqualFirstScores(t *testing.T) {
	var s Solver
	rng := rand.New(rand.NewSource(41))
	for _, n := range []int{5, sortCutoff, sortCutoff + 1, 200, 1000} {
		for _, budget := range []int{0, n / 3, n, 3 * n} {
			checkPassesAgainstReference(t, &s, exactTieProblem(n, budget), 3,
				fmt.Sprintf("tied n=%d budget=%d", n, budget))
		}
		// Equal first upgrades, distinct later ones: the heap interleaves
		// with a long run of tied sorted entries.
		p := exactTieProblem(n, 0)
		for i := range p.Items {
			p.Items[i] = Item{
				Values:  []float64{0, 1, 1 + rng.Float64(), 2 + rng.Float64()},
				Weights: []float64{0, 1, 2, 3},
				Cap:     3 * rng.Float64(),
			}
		}
		p.Budget = float64(n) * 1.5
		checkPassesAgainstReference(t, &s, p, 4, fmt.Sprintf("tied-first n=%d", n))
	}
}

// TestSortedPassSignedZeroScores mixes +0 and -0 first-upgrade scores with
// positive and negative ones: entryBefore treats the zeros as equal, so
// the sort key must too, and a rejected -0 upgrade must record its score
// as -0.
func TestSortedPassSignedZeroScores(t *testing.T) {
	negZero := math.Copysign(0, -1)
	var s Solver
	rng := rand.New(rand.NewSource(42))
	for _, n := range []int{7, sortCutoff - 1, sortCutoff + 2, 150, 600} {
		for trial := 0; trial < 20; trial++ {
			items := make([]Item, n)
			for i := range items {
				var v1 float64
				switch rng.Intn(5) {
				case 0:
					v1 = 0 // dv = +0
				case 1:
					v1 = negZero // dv = -0 - 0 = -0
				case 2:
					v1 = -1e-320 // dv/dw underflows to -0
				case 3:
					v1 = -rng.Float64()
				default:
					v1 = rng.Float64()
				}
				items[i] = Item{
					Values:  []float64{0, v1, v1 + rng.Float64() - 0.5},
					Weights: []float64{0, 1 + float64(rng.Intn(3)), 4},
					Cap:     1 + 4*rng.Float64(),
				}
			}
			p := &Problem{Items: items, Budget: float64(n) * rng.Float64() * 2}
			checkPassesAgainstReference(t, &s, p, 1+rng.Intn(6), fmt.Sprintf("zeros n=%d trial %d", n, trial))
		}
	}
	// A budget-rejected -0 upgrade surfaces with its sign intact.
	p := &Problem{
		Budget: 1,
		Items: []Item{
			{Values: []float64{0, 5}, Weights: []float64{0, 1}, Cap: 10},
			{Values: []float64{0, negZero}, Weights: []float64{0, 1}, Cap: 10},
		},
	}
	var tr PassTrace
	tr.TopK = 2
	s.DensityGreedyTraced(p, &tr)
	if len(tr.Alternatives) != 1 || !math.Signbit(tr.Alternatives[0].Score) ||
		tr.Alternatives[0].Reason != RejectBudget {
		t.Fatalf("alternatives %+v, want one budget rejection scored -0", tr.Alternatives)
	}
}

// TestSortedPassAllFirstNegative: no first upgrade is profitable, so
// nothing is sorted or queued; the solution is the base assignment and
// capture ranks every item's first upgrade as unprofitable.
func TestSortedPassAllFirstNegative(t *testing.T) {
	var s Solver
	rng := rand.New(rand.NewSource(43))
	for _, n := range []int{1, 10, sortCutoff + 1, 300} {
		items := make([]Item, n)
		for i := range items {
			items[i] = Item{
				Values:  []float64{1, 1 - rng.Float64() - 1e-3, 5},
				Weights: []float64{1, 2, 3},
				Cap:     10,
			}
		}
		p := &Problem{Items: items, Budget: float64(10 * n)}
		for _, k := range []int{0, 3, n} {
			checkPassesAgainstReference(t, &s, p, k, fmt.Sprintf("negative n=%d k=%d", n, k))
		}
		var tr CombinedTrace
		tr.Density.TopK = n
		sol := s.CombinedTraced(p, &tr)
		for i, l := range sol.Levels {
			if l != 1 {
				t.Fatalf("n=%d: item %d upgraded to %d with only negative scores", n, i, l)
			}
		}
		if tr.Density.Upgrades != 0 || len(tr.Density.Alternatives) != n {
			t.Fatalf("n=%d: %d upgrades, %d alternatives; want 0 and %d",
				n, tr.Density.Upgrades, len(tr.Density.Alternatives), n)
		}
	}
}

// TestSortedPassAroundCutoff runs the random shape families at sizes just
// below, at and above sortCutoff, where the first upgrades switch from
// insertion sort to the radix sort.
func TestSortedPassAroundCutoff(t *testing.T) {
	var s Solver
	rng := rand.New(rand.NewSource(44))
	for n := sortCutoff - 2; n <= sortCutoff+3; n++ {
		for trial := 0; trial < 40; trial++ {
			levels := 1 + rng.Intn(7)
			p := randomArbitraryProblem(rng, n, levels)
			if trial%2 == 1 {
				p = randomConcaveProblem(rng, n, levels)
			}
			checkPassesAgainstReference(t, &s, p, trial%5, fmt.Sprintf("n=%d trial %d", n, trial))
		}
	}
}

// TestSortedPassCapturePendingNegatives: items whose first upgrades are
// accepted but whose later upgrades turn negative leave negative entries
// pending next to never-profitable first upgrades; capture must rank both
// kinds together with the rejections, at every K.
func TestSortedPassCapturePendingNegatives(t *testing.T) {
	var s Solver
	rng := rand.New(rand.NewSource(45))
	for _, n := range []int{6, 90, 400} {
		items := make([]Item, n)
		for i := range items {
			first := rng.Float64()*4 - 1 // a quarter of first upgrades negative
			items[i] = Item{
				Values:  []float64{0, first, first + rng.Float64() - 0.7, first - 1},
				Weights: []float64{0, 1, 2 + rng.Float64(), 4},
				Cap:     1 + 3*rng.Float64(),
			}
		}
		p := &Problem{Items: items, Budget: float64(n) * 1.2}
		for _, k := range []int{1, 3, 10, 2 * n} {
			checkPassesAgainstReference(t, &s, p, k, fmt.Sprintf("pending n=%d k=%d", n, k))
		}
	}
}

// TestSolverZeroAllocLargeN extends the zero-allocation gate to N = 1000,
// where the first upgrades take the radix sort: once warm, Combined and a
// traced solve with TopK = 3 allocate nothing.
func TestSolverZeroAllocLargeN(t *testing.T) {
	p := benchLadderProblem(rand.New(rand.NewSource(1000)), 1000)
	var s Solver
	s.Combined(p)
	if allocs := testing.AllocsPerRun(20, func() { s.Combined(p) }); allocs != 0 {
		t.Errorf("N=1000 Solver.Combined allocates %v times per op, want 0", allocs)
	}
	var tr CombinedTrace
	tr.Density.TopK, tr.Value.TopK = 3, 3
	s.CombinedTraced(p, &tr)
	if allocs := testing.AllocsPerRun(20, func() {
		tr.Density.Rejections = tr.Density.Rejections[:0]
		tr.Value.Rejections = tr.Value.Rejections[:0]
		s.CombinedTraced(p, &tr)
	}); allocs != 0 {
		t.Errorf("N=1000 traced solve with TopK=3 allocates %v times per op, want 0", allocs)
	}
	checkPassesAgainstReference(t, &s, p, 3, "ladder n=1000")
}
