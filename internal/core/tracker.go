package core

import "repro/internal/estimate"

// Tracker maintains the per-user streaming state the per-slot objective
// needs: the running mean qbar_n(t-1) of successfully-viewed quality, the
// empirical prediction-success probability delta_n, and the realized QoE
// components. It is the online counterpart of the Welford decomposition of
// eq. (4): feeding its MeanQ/Delta into Objective reproduces the per-slot
// terms whose sum telescopes to T*sigma^2(T).
type Tracker struct {
	params Params
	users  []userState
}

type userState struct {
	t          int     // observed slots
	sumViewedQ float64 // sum of q*1
	covered    int     // count of 1_n(t) = 1
	deltaPrior float64
	viewedVar  estimate.Welford
	delaySum   float64
}

// NewTracker returns a tracker for n users. deltaPrior seeds the prediction
// success estimate before any observation (the paper estimates delta_n by
// its running average, which "converges to delta_n as t -> infinity").
func NewTracker(params Params, n int, deltaPrior float64) *Tracker {
	if deltaPrior < 0 {
		deltaPrior = 0
	}
	if deltaPrior > 1 {
		deltaPrior = 1
	}
	users := make([]userState, n)
	for i := range users {
		users[i].deltaPrior = deltaPrior
	}
	return &Tracker{params: params, users: users}
}

// NumUsers returns the number of tracked users.
func (tr *Tracker) NumUsers() int { return len(tr.users) }

// Slot returns the 1-based index of the next slot to allocate.
func (tr *Tracker) Slot() int {
	if len(tr.users) == 0 {
		return 1
	}
	return tr.users[0].t + 1
}

// MeanQ returns qbar_n(t-1) for user n: the running mean of successfully-
// viewed quality, 0 before any observation.
func (tr *Tracker) MeanQ(n int) float64 {
	u := &tr.users[n]
	if u.t == 0 {
		return 0
	}
	return u.sumViewedQ / float64(u.t)
}

// Delta returns the running estimate of the prediction success probability
// for user n, blending the prior with observations (Laplace-style smoothing
// with one pseudo-observation).
func (tr *Tracker) Delta(n int) float64 {
	u := &tr.users[n]
	return (u.deltaPrior + float64(u.covered)) / float64(1+u.t)
}

// UserInput assembles the allocator input for user n given this slot's rate
// table, delay table and throughput cap.
func (tr *Tracker) UserInput(n int, rate, delay []float64, cap_ float64) UserInput {
	return UserInput{
		Rate:  rate,
		Delay: delay,
		Delta: tr.Delta(n),
		MeanQ: tr.MeanQ(n),
		Cap:   cap_,
	}
}

// Record stores the outcome of one slot for user n: the allocated level q,
// whether the delivered portion covered the actual FoV, and the realized
// delivery delay.
func (tr *Tracker) Record(n, q int, covered bool, delay float64) {
	u := &tr.users[n]
	u.t++
	viewedQ := 0.0
	if covered {
		viewedQ = float64(q)
		u.covered++
	}
	u.sumViewedQ += viewedQ
	u.viewedVar.Add(viewedQ)
	u.delaySum += delay
}

// Variance returns sigma_n^2(t) over the observed horizon for user n.
func (tr *Tracker) Variance(n int) float64 { return tr.users[n].viewedVar.Variance() }

// QoE returns the realized per-slot-average QoE of user n so far:
// avg(q*1) - alpha*avg(d) - beta*sigma^2.
func (tr *Tracker) QoE(n int) float64 {
	u := &tr.users[n]
	if u.t == 0 {
		return 0
	}
	t := float64(u.t)
	return u.sumViewedQ/t - tr.params.Alpha*u.delaySum/t - tr.params.Beta*u.viewedVar.Variance()
}

// TotalQoE returns the sum of per-user QoE values — the system objective of
// eq. (1), expressed per slot.
func (tr *Tracker) TotalQoE() float64 {
	var sum float64
	for n := range tr.users {
		sum += tr.QoE(n)
	}
	return sum
}

// SessionQoE is one dynamic session's streaming h_n state: observed slots,
// covered slots and the viewed-quality sum, from which the allocator's
// Delta and MeanQ inputs derive. It is Tracker's per-user state for a
// session that joins and leaves at arbitrary slots, with the delta prior
// fixed at 1; the live server and the virtual-time engines embed it.
type SessionQoE struct {
	T          int     // observed slots
	Covered    int     // count of 1_n(t) = 1
	SumViewedQ float64 // sum of q*1
}

// Delta returns the running prediction-success estimate (1+covered)/(1+t).
func (s *SessionQoE) Delta() float64 { return (1 + float64(s.Covered)) / float64(1+s.T) }

// MeanQ returns qbar_n(t-1), 0 before any observation.
func (s *SessionQoE) MeanQ() float64 {
	if s.T == 0 {
		return 0
	}
	return s.SumViewedQ / float64(s.T)
}

// Observe records one slot's allocated level q and whether it covered the
// actual FoV.
func (s *SessionQoE) Observe(q int, covered bool) {
	s.T++
	if covered {
		s.Covered++
		s.SumViewedQ += float64(q)
	}
}
