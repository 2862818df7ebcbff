package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/estimate"
)

func directVariance(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var mean float64
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	var v float64
	for _, x := range xs {
		v += (x - mean) * (x - mean)
	}
	return v / float64(len(xs))
}

// TestVarianceDecompositionExact verifies eq. (4) / Appendix A: the sum of
// the per-slot terms equals T*sigma^2(T) exactly for arbitrary series.
func TestVarianceDecompositionExact(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(200)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(rng.Intn(7)) // quality*indicator-like values
		}
		want := directVariance(xs)
		got := HorizonVariance(xs)
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("trial %d: decomposed %v, direct %v", trial, got, want)
		}
	}
}

func TestVarianceDecompositionProperty(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, r := range raw {
			xs[i] = float64(r % 7)
		}
		return math.Abs(HorizonVariance(xs)-directVariance(xs)) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestVarianceTermsNonNegative(t *testing.T) {
	xs := []float64{3, 0, 5, 5, 2, 6, 0}
	for i, term := range VarianceTerms(xs) {
		if term < 0 {
			t.Errorf("term %d = %v, want >= 0", i, term)
		}
	}
	// First term is always zero: (t-1)/t = 0 at t=1.
	if VarianceTerms(xs)[0] != 0 {
		t.Errorf("first term should be 0")
	}
}

func TestVarianceEmpty(t *testing.T) {
	if got := HorizonVariance(nil); got != 0 {
		t.Errorf("empty variance = %v, want 0", got)
	}
	if terms := VarianceTerms(nil); len(terms) != 0 {
		t.Errorf("empty terms = %v", terms)
	}
}

func TestTrackerMeanAndDelta(t *testing.T) {
	params := DefaultSimParams()
	tr := NewTracker(params, 2, 1.0)

	if got := tr.Slot(); got != 1 {
		t.Fatalf("initial slot = %d, want 1", got)
	}
	if got := tr.Delta(0); got != 1 {
		t.Errorf("prior delta = %v, want 1", got)
	}
	if got := tr.MeanQ(0); got != 0 {
		t.Errorf("prior mean = %v, want 0", got)
	}

	tr.Record(0, 4, true, 0.2)
	tr.Record(0, 2, false, 0.1)
	tr.Record(1, 6, true, 0.0)

	// User 0: viewed {4, 0} -> mean 2; covered 1 of 2 -> delta (1+1)/3.
	if got := tr.MeanQ(0); math.Abs(got-2) > 1e-12 {
		t.Errorf("MeanQ(0) = %v, want 2", got)
	}
	if got := tr.Delta(0); math.Abs(got-2.0/3) > 1e-12 {
		t.Errorf("Delta(0) = %v, want 2/3", got)
	}
	if got := tr.Variance(0); math.Abs(got-4) > 1e-12 {
		t.Errorf("Variance(0) = %v, want 4", got)
	}
	// User 1: viewed {6}.
	if got := tr.MeanQ(1); got != 6 {
		t.Errorf("MeanQ(1) = %v, want 6", got)
	}
}

func TestTrackerQoEMatchesDefinition(t *testing.T) {
	params := Params{Alpha: 0.1, Beta: 0.5, Levels: 6}
	tr := NewTracker(params, 1, 1)
	var viewed []float64
	var delaySum float64
	rng := rand.New(rand.NewSource(33))
	var w estimate.Welford
	for i := 0; i < 300; i++ {
		q := 1 + rng.Intn(6)
		covered := rng.Float64() < 0.9
		delay := rng.Float64()
		tr.Record(0, q, covered, delay)
		vq := 0.0
		if covered {
			vq = float64(q)
		}
		viewed = append(viewed, vq)
		w.Add(vq)
		delaySum += delay
	}
	want := w.Mean() - params.Alpha*delaySum/300 - params.Beta*directVariance(viewed)
	if got := tr.QoE(0); math.Abs(got-want) > 1e-9 {
		t.Errorf("QoE = %v, want %v", got, want)
	}
	if got := tr.TotalQoE(); math.Abs(got-want) > 1e-9 {
		t.Errorf("TotalQoE = %v, want %v", got, want)
	}
}

func TestTrackerPriorClamped(t *testing.T) {
	tr := NewTracker(DefaultSimParams(), 1, 2.5)
	if got := tr.Delta(0); got != 1 {
		t.Errorf("clamped prior = %v, want 1", got)
	}
	tr = NewTracker(DefaultSimParams(), 1, -1)
	if got := tr.Delta(0); got != 0 {
		t.Errorf("clamped prior = %v, want 0", got)
	}
}

func TestTrackerUserInput(t *testing.T) {
	tr := NewTracker(DefaultSimParams(), 1, 1)
	tr.Record(0, 3, true, 0)
	rates := []float64{1, 2, 3, 4, 5, 6}
	delays := []float64{0, 0, 0, 0, 0, 0}
	u := tr.UserInput(0, rates, delays, 42)
	if u.MeanQ != 3 || u.Cap != 42 {
		t.Errorf("UserInput = %+v", u)
	}
	if u.Delta != 1 {
		t.Errorf("Delta = %v, want 1 (prior 1, one covered obs)", u.Delta)
	}
}

func TestTrackerEmpty(t *testing.T) {
	tr := NewTracker(DefaultSimParams(), 0, 1)
	if tr.NumUsers() != 0 {
		t.Errorf("NumUsers = %d", tr.NumUsers())
	}
	if got := tr.Slot(); got != 1 {
		t.Errorf("Slot = %d, want 1", got)
	}
	if got := tr.TotalQoE(); got != 0 {
		t.Errorf("TotalQoE = %v, want 0", got)
	}
}

// TestSessionQoEMatchesTrackerAtPriorOne pins the per-session state the
// server and the virtual-time engines embed to Tracker's estimators with
// the delta prior every dynamic session uses.
func TestSessionQoEMatchesTrackerAtPriorOne(t *testing.T) {
	tr := NewTracker(DefaultSimParams(), 1, 1)
	var s SessionQoE
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 200; i++ {
		if s.Delta() != tr.Delta(0) || s.MeanQ() != tr.MeanQ(0) {
			t.Fatalf("slot %d: SessionQoE (%v, %v) != Tracker (%v, %v)",
				i, s.Delta(), s.MeanQ(), tr.Delta(0), tr.MeanQ(0))
		}
		q, covered := 1+rng.Intn(6), rng.Float64() < 0.8
		s.Observe(q, covered)
		tr.Record(0, q, covered, 0)
	}
	if s.T != 200 {
		t.Errorf("T = %d, want 200", s.T)
	}
}
