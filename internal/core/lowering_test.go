package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// referenceObjectiveTerms is eq. (9) evaluated per level exactly as it was
// written before the lowering hoisted the q-independent factors: the
// variance weight and both variance products recomputed at every level,
// multiplied left to right.
func referenceObjectiveTerms(params Params, t int, u UserInput, q int) Terms {
	tf := float64(t)
	varWeight := (tf - 1) / tf
	dq := float64(q) - u.MeanQ
	variance := u.Delta*varWeight*dq*dq + (1-u.Delta)*varWeight*u.MeanQ*u.MeanQ
	return Terms{
		Quality:  u.Delta * float64(q),
		Delay:    params.Alpha * u.Delay[q-1],
		Variance: params.Beta * variance,
	}
}

func referenceObjective(params Params, t int, u UserInput, q int) float64 {
	terms := referenceObjectiveTerms(params, t, u, q)
	return terms.Quality - terms.Delay - terms.Variance
}

// randomLoweringProblem draws users across the whole input range,
// including the edges of the variance term: T = 1 (zero weight),
// MeanQ = 0, and Delta at 0 and 1.
func randomLoweringProblem(rng *rand.Rand, params Params, n int) *SlotProblem {
	p := randomSlotProblem(rng, params, n)
	switch rng.Intn(4) {
	case 0:
		p.T = 1
	case 1:
		p.T = 2
	case 2:
		p.T = 1 + rng.Intn(1<<20)
	}
	for i := range p.Users {
		u := &p.Users[i]
		switch rng.Intn(4) {
		case 0:
			u.Delta = 0
		case 1:
			u.Delta = 1
		default:
			u.Delta = rng.Float64()
		}
		switch rng.Intn(3) {
		case 0:
			u.MeanQ = 0
		default:
			u.MeanQ = rng.Float64() * float64(params.Levels)
		}
		for q := range u.Delay {
			u.Delay[q] = rng.ExpFloat64() * 50
		}
	}
	return p
}

// TestLoweringMatchesPerLevelReference checks every consumer of the
// hoisted objective — ObjectiveTerms, Objective, toKnapsack (and so
// LowerProblem and the stateless allocators) and SolverAllocator.lower —
// bit for bit against the per-level reference arithmetic.
func TestLoweringMatchesPerLevelReference(t *testing.T) {
	rng := rand.New(rand.NewSource(90))
	a := NewSolverAllocator()
	for trial := 0; trial < 300; trial++ {
		params := DefaultSimParams()
		if trial%2 == 1 {
			params = DefaultSystemParams()
		}
		p := randomLoweringProblem(rng, params, 1+rng.Intn(40))
		stateless := toKnapsack(params, p)
		reused := a.lower(params, p)
		for i, u := range p.Users {
			for q := 1; q <= params.Levels; q++ {
				what := fmt.Sprintf("trial %d user %d q %d (T=%d delta=%v meanQ=%v)",
					trial, i, q, p.T, u.Delta, u.MeanQ)
				wantTerms := referenceObjectiveTerms(params, p.T, u, q)
				gotTerms := ObjectiveTerms(params, p.T, u, q)
				for _, c := range []struct {
					name      string
					want, got float64
				}{
					{"Quality", wantTerms.Quality, gotTerms.Quality},
					{"Delay", wantTerms.Delay, gotTerms.Delay},
					{"Variance", wantTerms.Variance, gotTerms.Variance},
				} {
					if math.Float64bits(c.want) != math.Float64bits(c.got) {
						t.Fatalf("%s: ObjectiveTerms.%s = %v, want %v", what, c.name, c.got, c.want)
					}
				}
				want := math.Float64bits(referenceObjective(params, p.T, u, q))
				for _, c := range []struct {
					name string
					got  float64
				}{
					{"Objective", Objective(params, p.T, u, q)},
					{"toKnapsack", stateless.Items[i].Values[q-1]},
					{"SolverAllocator.lower", reused.Items[i].Values[q-1]},
				} {
					if math.Float64bits(c.got) != want {
						t.Fatalf("%s: %s = %v, want %v", what, c.name, c.got, math.Float64frombits(want))
					}
				}
			}
		}
	}
}
