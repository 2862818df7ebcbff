package knapsack

import (
	"math/rand"
	"testing"
)

// counterfactualProblem is a hand-built instance exercising every
// alternative reason in one density pass:
//
//	item 0: two profitable upgrades, both accepted (density 2.5 then 1.5)
//	item 1: profitable but over budget after item 0 upgrades (density 4/9)
//	item 2: negative marginal value — the "eta < 0" break (density -2)
//	item 3: best density (3.0) but rejected by its per-item cap
func counterfactualProblem() *Problem {
	return &Problem{
		Budget: 10,
		Items: []Item{
			{Values: []float64{0, 5, 8}, Weights: []float64{0, 2, 4}, Cap: 100},
			{Values: []float64{0, 4}, Weights: []float64{0, 9}, Cap: 100},
			{Values: []float64{0, -2}, Weights: []float64{0, 1}, Cap: 100},
			{Values: []float64{0, 3}, Weights: []float64{0, 1}, Cap: 0.5},
		},
	}
}

// TestCounterfactualAlternatives pins the exact alternatives of both greedy
// passes on the crafted instance: one per reason, ranked by marginal score.
func TestCounterfactualAlternatives(t *testing.T) {
	p := counterfactualProblem()
	var s Solver

	var dtr PassTrace
	dtr.TopK = 4
	s.DensityGreedyTraced(p, &dtr)
	wantD := []Alternative{
		{Item: 3, Level: 2, Score: 3, Gain: 3, Reason: RejectItemCap},
		{Item: 1, Level: 2, Score: 4.0 / 9.0, Gain: 4, Reason: RejectBudget},
		{Item: 2, Level: 2, Score: -2, Gain: -2, Reason: RejectUnprofitable},
	}
	checkAlternatives(t, "density", dtr.Alternatives, wantD)

	var vtr PassTrace
	vtr.TopK = 4
	s.ValueGreedyTraced(p, &vtr)
	wantV := []Alternative{
		{Item: 1, Level: 2, Score: 4, Gain: 4, Reason: RejectBudget},
		{Item: 3, Level: 2, Score: 3, Gain: 3, Reason: RejectItemCap},
		{Item: 2, Level: 2, Score: -2, Gain: -2, Reason: RejectUnprofitable},
	}
	checkAlternatives(t, "value", vtr.Alternatives, wantV)

	// K bounds the list: only the best K survive, still in rank order.
	dtr.TopK = 2
	s.DensityGreedyTraced(p, &dtr)
	checkAlternatives(t, "density/k=2", dtr.Alternatives, wantD[:2])

	dtr.TopK = 1
	s.DensityGreedyTraced(p, &dtr)
	checkAlternatives(t, "density/k=1", dtr.Alternatives, wantD[:1])
}

func checkAlternatives(t *testing.T, name string, got, want []Alternative) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d alternatives %+v, want %d %+v", name, len(got), got, len(want), want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: alternative %d = %+v, want %+v", name, i, got[i], want[i])
		}
	}
}

// TestCounterfactualDisabledUntouched checks the opt-in contract: TopK == 0
// leaves Alternatives exactly as the caller passed them (nil stays nil),
// and Rejections/Upgrades/solutions are identical either way.
func TestCounterfactualDisabledUntouched(t *testing.T) {
	p := counterfactualProblem()
	var s Solver

	var off, on PassTrace
	on.TopK = 8
	solOff := s.DensityGreedyTraced(p, &off).Clone()
	solOn := s.DensityGreedyTraced(p, &on)
	if off.Alternatives != nil {
		t.Fatalf("disabled pass filled Alternatives: %+v", off.Alternatives)
	}
	if len(on.Alternatives) == 0 {
		t.Fatal("enabled pass recorded no alternatives")
	}
	equalSolutions(t, solOff, solOn, "capture on/off")
	equalPassTraces(t, off, on, "capture on/off")
}

// TestCounterfactualMatchesReference runs the differential harness with
// capture enabled: alternatives must never perturb the decision sequence,
// so solutions and (Upgrades, Rejections) stay bit-identical to the
// reference scan — which ignores TopK entirely.
func TestCounterfactualMatchesReference(t *testing.T) {
	var s Solver
	for _, shape := range allShapes() {
		t.Run(shape.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(555))
			for trial := 0; trial < 200; trial++ {
				p := shape.gen(rng)
				var refTr, gotTr CombinedTrace
				gotTr.Density.TopK, gotTr.Value.TopK = 3, 3
				ref := p.ReferenceCombinedTraced(&refTr)
				got := s.CombinedTraced(p, &gotTr)
				equalSolutions(t, ref, got, "combined+capture")
				equalPassTraces(t, refTr.Density, gotTr.Density, "density+capture")
				equalPassTraces(t, refTr.Value, gotTr.Value, "value+capture")
				for _, pass := range []PassTrace{gotTr.Density, gotTr.Value} {
					if len(pass.Alternatives) > 3 {
						t.Fatalf("capture exceeded K: %d alternatives", len(pass.Alternatives))
					}
					for i := 1; i < len(pass.Alternatives); i++ {
						if altBefore(pass.Alternatives[i], pass.Alternatives[i-1]) {
							t.Fatalf("alternatives out of rank order: %+v", pass.Alternatives)
						}
					}
				}
			}
		})
	}
}

// TestCounterfactualExhaustedHeap checks that a pass that accepts every
// upgrade (no rejections, heap drained) reports no alternatives: there was
// nothing the greedy walked away from.
func TestCounterfactualExhaustedHeap(t *testing.T) {
	p := &Problem{
		Budget: 100,
		Items: []Item{
			{Values: []float64{0, 2, 3}, Weights: []float64{0, 1, 2}, Cap: 100},
			{Values: []float64{0, 1}, Weights: []float64{0, 1}, Cap: 100},
		},
	}
	var s Solver
	var tr PassTrace
	tr.TopK = 3
	s.DensityGreedyTraced(p, &tr)
	if len(tr.Alternatives) != 0 {
		t.Fatalf("fully-upgraded pass recorded alternatives: %+v", tr.Alternatives)
	}
	if tr.Upgrades != 3 || len(tr.Rejections) != 0 {
		t.Fatalf("trace = %+v, want 3 upgrades and no rejections", tr)
	}
}

// TestCounterfactualZeroAllocSteadyState extends the zero-alloc acceptance
// gate to capture: disabled capture stays at 0 allocs/op, and enabled
// capture also reaches 0 once the Alternatives scratch has grown to K.
func TestCounterfactualZeroAllocSteadyState(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	p := randomConcaveProblem(rng, 30, 6)
	var s Solver
	var tr CombinedTrace
	s.CombinedTraced(p, &tr) // warm scratch, TopK == 0
	if allocs := testing.AllocsPerRun(100, func() {
		tr.Density.Rejections = tr.Density.Rejections[:0]
		tr.Value.Rejections = tr.Value.Rejections[:0]
		s.CombinedTraced(p, &tr)
	}); allocs != 0 {
		t.Errorf("capture-disabled traced solve allocates %v times per op, want 0", allocs)
	}

	tr.Density.TopK, tr.Value.TopK = 3, 3
	s.CombinedTraced(p, &tr) // warm the Alternatives scratch
	if allocs := testing.AllocsPerRun(100, func() {
		tr.Density.Rejections = tr.Density.Rejections[:0]
		tr.Value.Rejections = tr.Value.Rejections[:0]
		s.CombinedTraced(p, &tr)
	}); allocs != 0 {
		t.Errorf("capture-enabled traced solve allocates %v times per op, want 0", allocs)
	}
}

// TestInsertTopK unit-tests the bounded sorted-insert helper: rank order,
// truncation, the heap tie-break (equal score -> lower item, then lower
// level), and the k <= 0 no-op.
func TestInsertTopK(t *testing.T) {
	var alts []Alternative
	if out := insertTopK(alts, 0, Alternative{Item: 1, Score: 9}); len(out) != 0 {
		t.Fatalf("k=0 inserted: %+v", out)
	}
	for _, a := range []Alternative{
		{Item: 4, Score: 1},
		{Item: 2, Score: 5},
		{Item: 7, Score: 5}, // score tie: item 2 ranks first
		{Item: 7, Level: 3, Score: 3},
		{Item: 7, Level: 2, Score: 3}, // full tie but level: level 2 first
		{Item: 0, Score: -1},
	} {
		alts = insertTopK(alts, 4, a)
	}
	want := []Alternative{
		{Item: 2, Score: 5},
		{Item: 7, Score: 5},
		{Item: 7, Level: 2, Score: 3},
		{Item: 7, Level: 3, Score: 3},
	}
	checkAlternatives(t, "insertTopK", alts, want)
}
