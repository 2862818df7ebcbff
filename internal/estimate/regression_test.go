package estimate

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

func TestFitLinearExact(t *testing.T) {
	xs := []float64{0, 1, 2, 3, 4}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 3*x - 2
	}
	fit, err := FitLinear(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Slope-3) > 1e-9 || math.Abs(fit.Intercept+2) > 1e-9 {
		t.Errorf("fit = %+v, want slope 3 intercept -2", fit)
	}
	if got := fit.Predict(10); math.Abs(got-28) > 1e-9 {
		t.Errorf("Predict(10) = %v, want 28", got)
	}
}

func TestFitLinearNoisy(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var xs, ys []float64
	for i := 0; i < 500; i++ {
		x := float64(i) / 10
		xs = append(xs, x)
		ys = append(ys, 0.5*x+1+rng.NormFloat64()*0.01)
	}
	fit, err := FitLinear(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Slope-0.5) > 0.01 || math.Abs(fit.Intercept-1) > 0.05 {
		t.Errorf("noisy fit = %+v, want approx slope 0.5 intercept 1", fit)
	}
}

func TestFitLinearErrors(t *testing.T) {
	if _, err := FitLinear([]float64{1}, []float64{2}); !errors.Is(err, ErrSingular) {
		t.Errorf("single sample should be singular, got %v", err)
	}
	if _, err := FitLinear([]float64{1, 1, 1}, []float64{2, 3, 4}); !errors.Is(err, ErrSingular) {
		t.Errorf("constant x should be singular, got %v", err)
	}
	if _, err := FitLinear([]float64{1, 2}, []float64{2}); err == nil {
		t.Errorf("mismatched lengths should error")
	}
}

func TestFitPolyRecoversQuadratic(t *testing.T) {
	var xs, ys []float64
	for i := -5; i <= 5; i++ {
		x := float64(i)
		xs = append(xs, x)
		ys = append(ys, 2*x*x-3*x+1)
	}
	fit, err := FitPoly(xs, ys, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, -3, 2}
	for i, c := range want {
		if math.Abs(fit.Coeffs[i]-c) > 1e-6 {
			t.Errorf("coeff[%d] = %v, want %v", i, fit.Coeffs[i], c)
		}
	}
	if got := fit.Predict(2); math.Abs(got-3) > 1e-6 {
		t.Errorf("Predict(2) = %v, want 3", got)
	}
}

func TestFitPolyDegreeZero(t *testing.T) {
	fit, err := FitPoly([]float64{1, 2, 3}, []float64{4, 6, 8}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Coeffs[0]-6) > 1e-9 {
		t.Errorf("degree-0 fit should be the mean, got %v", fit.Coeffs[0])
	}
}

func TestFitPolyErrors(t *testing.T) {
	if _, err := FitPoly([]float64{1, 2}, []float64{1, 2}, 2); !errors.Is(err, ErrSingular) {
		t.Errorf("too few samples should be singular, got %v", err)
	}
	if _, err := FitPoly([]float64{1}, []float64{1, 2}, 1); err == nil {
		t.Errorf("mismatched lengths should error")
	}
	if _, err := FitPoly([]float64{1, 2}, []float64{1, 2}, -1); err == nil {
		t.Errorf("negative degree should error")
	}
}

// The delay-vs-rate curve of eq. (13) is convex; a quadratic fit over the
// operating region should predict it with small relative error — this is
// exactly what the server-side delay predictor does.
func TestFitPolyApproximatesMM1Delay(t *testing.T) {
	budget := 50.0
	var xs, ys []float64
	for r := 5.0; r <= 40; r += 1 {
		xs = append(xs, r)
		ys = append(ys, r/(budget-r))
	}
	fit, err := FitPoly(xs, ys, 3)
	if err != nil {
		t.Fatal(err)
	}
	for r := 6.0; r <= 39; r += 3 {
		want := r / (budget - r)
		got := fit.Predict(r)
		if math.Abs(got-want) > 0.05+0.25*want {
			t.Errorf("Predict(%v) = %v, want approx %v", r, got, want)
		}
	}
}
