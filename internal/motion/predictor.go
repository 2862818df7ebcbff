package motion

import (
	"math"

	"repro/internal/vrmath"
)

// axes is one observed pose as the regression sees it: x, y, z, unwrapped
// yaw, pitch and roll.
type axes [6]float64

// Predictor forecasts the next slot's 6-DoF pose with an independent linear
// regression per axis, "which follows the methodology in [Firefly]"
// (Section V). Yaw is unwrapped into a cumulative angle before regression so
// that crossing the +/-180 seam does not break the fit.
//
// The window is one ring of poses allocated at construction, so Observe and
// Predict never allocate. Each Predict refits all six axes in one pass over
// the window with exactly estimate.FitLinear's operations in its order
// (x = 0..n-1, oldest to newest), so every axis is bit-identical to
// FitLinear over the same samples. Running sums would make the refit O(1)
// but drift in floating point and break that identity.
type Predictor struct {
	ring []axes // ring[head] is the oldest of n samples
	head int
	n    int

	lastYaw   float64
	cumYaw    float64
	havePrior bool
}

// DefaultWindow is the number of recent slots the regression looks at.
const DefaultWindow = 8

// NewPredictor returns a predictor with the given regression window
// (minimum 2; DefaultWindow if <= 0).
func NewPredictor(window int) *Predictor {
	if window <= 0 {
		window = DefaultWindow
	}
	return &Predictor{ring: make([]axes, max(window, 2))}
}

// Observe feeds the pose of the current slot.
func (p *Predictor) Observe(pose vrmath.Pose) {
	pose = pose.Normalize()
	if !p.havePrior {
		p.cumYaw = pose.Yaw
		p.havePrior = true
	} else {
		p.cumYaw += vrmath.AngleDiff(pose.Yaw, p.lastYaw)
	}
	p.lastYaw = pose.Yaw

	v := axes{pose.Pos.X, pose.Pos.Y, pose.Pos.Z, p.cumYaw, pose.Pitch, pose.Roll}
	if p.n < len(p.ring) {
		// Filling: head stays 0 until the ring is full.
		p.ring[p.n] = v
		p.n++
		return
	}
	p.ring[p.head] = v
	if p.head++; p.head == len(p.ring) {
		p.head = 0
	}
}

// Predict extrapolates the next slot's pose. Before any observation it
// returns the zero pose.
func (p *Predictor) Predict() vrmath.Pose {
	a := p.predictNext()
	return vrmath.Pose{
		Pos:   vrmath.Vec3{X: a[0], Y: a[1], Z: a[2]},
		Yaw:   vrmath.NormalizeAngle(a[3]),
		Pitch: vrmath.ClampPitch(a[4]),
		Roll:  vrmath.NormalizeAngle(a[5]),
	}
}

// predictNext extrapolates every axis one step ahead with a least-squares
// line over the window. With fewer than two samples it returns the last
// sample (zeros when empty); a singular fit also falls back to the last
// sample.
func (p *Predictor) predictNext() axes {
	switch p.n {
	case 0:
		return axes{}
	case 1:
		return p.ring[0]
	}
	var sx, sxx float64
	var sy, sxy axes
	i := p.head
	for k := 0; k < p.n; k++ {
		x := float64(k)
		y := &p.ring[i]
		sx += x
		sxx += x * x
		for a := range sy {
			sy[a] += y[a]
			sxy[a] += x * y[a]
		}
		if i++; i == len(p.ring) {
			i = 0
		}
	}
	n := float64(p.n)
	det := n*sxx - sx*sx
	if math.Abs(det) < 1e-12 {
		return p.ring[(p.head+p.n-1)%len(p.ring)] // the newest sample
	}
	var out axes
	for a := range out {
		slope := (n*sxy[a] - sx*sy[a]) / det
		intercept := (sy[a] - slope*sx) / n
		out[a] = intercept + slope*n
	}
	return out
}

// CoverageConfig parametrizes the FoV-coverage check behind 1_n(t).
type CoverageConfig struct {
	FoV vrmath.FoV
	// MarginDeg is the extra margin delivered around the predicted FoV
	// ("we deliver a portion that covers the FoV with some fixed margin").
	MarginDeg float64
	// PosToleranceM is the maximum position error (metres) for the
	// delivered cell content to still match the user's cell. The paper's
	// margin only helps orientation (footnote 1); position errors beyond
	// the grid granularity miss.
	PosToleranceM float64
}

// DefaultCoverage matches the system defaults: the default FoV, a 15 degree
// margin, and one grid cell of position tolerance.
func DefaultCoverage() CoverageConfig {
	return CoverageConfig{
		FoV:           vrmath.DefaultFoV,
		MarginDeg:     15,
		PosToleranceM: 0.05,
	}
}

// Covered evaluates the indicator 1_n(t): does the portion delivered for
// the predicted pose (FoV plus margin) cover the actual FoV, and is the
// predicted position close enough for the delivered cell content to match?
func (c CoverageConfig) Covered(predicted, actual vrmath.Pose) bool {
	if predicted.Pos.Dist(actual.Pos) > c.PosToleranceM {
		return false
	}
	delivered := vrmath.Rect(predicted, c.FoV.Expand(c.MarginDeg))
	needed := vrmath.Rect(actual, c.FoV)
	return delivered.Covers(needed)
}
