package motion

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/estimate"
	"repro/internal/vrmath"
)

// fitPredictor is the reference the ring predictor must match bit for bit:
// one sample history per axis, each extrapolated with estimate.FitLinear
// over x = 0..n-1, falling back to the last sample when the fit fails.
type fitPredictor struct {
	window    int
	hist      [6][]float64
	lastYaw   float64
	cumYaw    float64
	havePrior bool
}

func (r *fitPredictor) Observe(pose vrmath.Pose) {
	pose = pose.Normalize()
	if !r.havePrior {
		r.cumYaw = pose.Yaw
		r.havePrior = true
	} else {
		r.cumYaw += vrmath.AngleDiff(pose.Yaw, r.lastYaw)
	}
	r.lastYaw = pose.Yaw
	for k, v := range [6]float64{pose.Pos.X, pose.Pos.Y, pose.Pos.Z, r.cumYaw, pose.Pitch, pose.Roll} {
		r.hist[k] = append(r.hist[k], v)
		if len(r.hist[k]) > r.window {
			r.hist[k] = r.hist[k][1:]
		}
	}
}

func (r *fitPredictor) predictAxis(ys []float64) float64 {
	switch len(ys) {
	case 0:
		return 0
	case 1:
		return ys[0]
	}
	xs := make([]float64, len(ys))
	for i := range xs {
		xs[i] = float64(i)
	}
	fit, err := estimate.FitLinear(xs, ys)
	if err != nil {
		return ys[len(ys)-1]
	}
	return fit.Predict(float64(len(ys)))
}

func (r *fitPredictor) Predict() vrmath.Pose {
	var a [6]float64
	for k := range a {
		a[k] = r.predictAxis(r.hist[k])
	}
	return vrmath.Pose{
		Pos:   vrmath.Vec3{X: a[0], Y: a[1], Z: a[2]},
		Yaw:   vrmath.NormalizeAngle(a[3]),
		Pitch: vrmath.ClampPitch(a[4]),
		Roll:  vrmath.NormalizeAngle(a[5]),
	}
}

func poseBits(p vrmath.Pose) [6]uint64 {
	return [6]uint64{
		math.Float64bits(p.Pos.X), math.Float64bits(p.Pos.Y), math.Float64bits(p.Pos.Z),
		math.Float64bits(p.Yaw), math.Float64bits(p.Pitch), math.Float64bits(p.Roll),
	}
}

// checkAgainstFitLinear feeds trace to a Predictor and to the FitLinear
// reference, comparing the predictions bit for bit before the first
// observation and after every one, warm-up included.
func checkAgainstFitLinear(t *testing.T, name string, window int, trace []vrmath.Pose) {
	t.Helper()
	p := NewPredictor(window)
	ref := &fitPredictor{window: window}
	for i := -1; i < len(trace); i++ {
		if i >= 0 {
			p.Observe(trace[i])
			ref.Observe(trace[i])
		}
		got, want := p.Predict(), ref.Predict()
		if poseBits(got) != poseBits(want) {
			t.Fatalf("%s window %d after %d poses: Predict = %+v, FitLinear reference %+v",
				name, window, i+1, got, want)
		}
	}
}

func TestPredictorMatchesFitLinearBits(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const slots = 60
	walk := make([]vrmath.Pose, slots)
	var cur vrmath.Pose
	for i := range walk {
		cur.Pos = cur.Pos.Add(vrmath.Vec3{X: rng.NormFloat64() * 0.02, Y: rng.NormFloat64() * 0.005, Z: rng.NormFloat64() * 0.02})
		cur.Yaw += rng.NormFloat64() * 7
		cur.Pitch += rng.NormFloat64() * 3
		cur.Roll += rng.NormFloat64() * 2
		walk[i] = cur
	}
	constant := make([]vrmath.Pose, slots)
	for i := range constant {
		constant[i] = vrmath.Pose{Pos: vrmath.Vec3{X: 1.25, Y: 1.6, Z: -3.5}, Yaw: 33.3, Pitch: -12.5, Roll: 4}
	}
	// Yaw sweeps through the +/-180 seam in both directions, several times.
	seam := make([]vrmath.Pose, slots)
	for i := range seam {
		dir := 1.0
		if (i/20)%2 == 1 {
			dir = -1
		}
		seam[i] = vrmath.Pose{Yaw: 170 + dir*float64(i%20)*1.7, Roll: -175 - float64(i)*0.9}
	}
	generated := Generate(Scenes()[1], 4, slots, 60, 23)

	for window := 2; window <= 16; window++ {
		checkAgainstFitLinear(t, "random walk", window, walk)
		checkAgainstFitLinear(t, "constant", window, constant)
		checkAgainstFitLinear(t, "yaw seam", window, seam)
		checkAgainstFitLinear(t, "generated", window, generated)
	}
}

// The single-axis tests below pin the window semantics on the X axis: the
// empty and single-sample cases, eviction of the oldest sample, and the
// minimum window of two.

func TestPredictorWindowPredict(t *testing.T) {
	p := NewPredictor(5)
	if got := p.Predict().Pos.X; got != 0 {
		t.Errorf("empty window predicts %v, want 0", got)
	}
	observeX := func(x float64) { p.Observe(vrmath.Pose{Pos: vrmath.Vec3{X: x}}) }
	observeX(7)
	if got := p.Predict().Pos.X; got != 7 {
		t.Errorf("single-sample window predicts %v, want 7", got)
	}
	// Linear series: prediction continues the line.
	for _, x := range []float64{1, 2, 3, 4, 5} {
		observeX(x)
	}
	if got := p.Predict().Pos.X; math.Abs(got-6) > 1e-9 {
		t.Errorf("Predict = %v, want 6", got)
	}
	// Window evicts: after observing 6, the window holds 2..6 and predicts 7.
	observeX(6)
	if p.n != 5 {
		t.Fatalf("window length = %d, want 5", p.n)
	}
	if got := p.Predict().Pos.X; math.Abs(got-7) > 1e-9 {
		t.Errorf("Predict after eviction = %v, want 7", got)
	}
}

func TestPredictorWindowConstantSeries(t *testing.T) {
	p := NewPredictor(4)
	for i := 0; i < 10; i++ {
		p.Observe(vrmath.Pose{Pos: vrmath.Vec3{X: 3.5}})
	}
	if got := p.Predict().Pos.X; math.Abs(got-3.5) > 1e-9 {
		t.Errorf("constant series predicts %v, want 3.5", got)
	}
}

func TestPredictorWindowMinCapacity(t *testing.T) {
	p := NewPredictor(1)
	for _, x := range []float64{1, 2, 10} {
		p.Observe(vrmath.Pose{Pos: vrmath.Vec3{X: x}})
	}
	if p.n != 2 {
		t.Errorf("window should clamp to 2, len = %d", p.n)
	}
	// The line through the last two samples, 2 and 10, continues to 18.
	if got := p.Predict().Pos.X; math.Abs(got-18) > 1e-9 {
		t.Errorf("Predict = %v, want 18", got)
	}
}

func TestPredictorZeroAllocs(t *testing.T) {
	p := NewPredictor(DefaultWindow)
	tr := Generate(Scenes()[0], 1, 64, 60, 5)
	for _, pose := range tr[:DefaultWindow] {
		p.Observe(pose)
	}
	if avg := testing.AllocsPerRun(100, func() { predictSink = p.Predict() }); avg != 0 {
		t.Errorf("Predict allocates %.2f allocs/op, want 0", avg)
	}
	i := 0
	if avg := testing.AllocsPerRun(100, func() {
		p.Observe(tr[i%len(tr)])
		i++
	}); avg != 0 {
		t.Errorf("Observe allocates %.2f allocs/op, want 0", avg)
	}
}

// predictSink keeps the compiler from discarding measured Predict calls.
var predictSink vrmath.Pose

func BenchmarkPredictorPredict(b *testing.B) {
	p := NewPredictor(DefaultWindow)
	for _, pose := range Generate(Scenes()[0], 1, DefaultWindow, 60, 5) {
		p.Observe(pose)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		predictSink = p.Predict()
	}
}

func BenchmarkPredictorObserve(b *testing.B) {
	p := NewPredictor(DefaultWindow)
	tr := Generate(Scenes()[0], 1, 256, 60, 5)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Observe(tr[i%len(tr)])
	}
}
