package main

import (
	"time"

	"repro/internal/core"
)

// stamps is the allocator probe's record of one engine run: the wall time
// at which each slot's first solve started (the slot clock seen from the
// benchmark), each solve's duration, and the problem sizes. One stamps is
// shared by every allocator an engine builds (one per fleet shard), so it
// must only be used by engines that solve from one goroutine at a time —
// true of Simulate, SimulateFleet and the server's slot loop.
type stamps struct {
	base       time.Time
	first      time.Time
	lastT      int
	slotStarts []time.Duration // since base, one per distinct problem T
	slotCPU    []time.Duration // process CPU time at each slot start
	solveNs    []float64
	users      int64
	utilSum    float64
	utilN      int
}

func newStamps(base time.Time, capacity int) *stamps {
	return &stamps{
		base:       base,
		lastT:      -1,
		slotStarts: make([]time.Duration, 0, capacity),
		slotCPU:    make([]time.Duration, 0, capacity),
		solveNs:    make([]float64, 0, capacity),
	}
}

// probe wraps the production solver and stamps every call. It forwards
// AllocateShared and AllocateTraced, so an engine that type-asserts for
// them keeps its zero-copy shared path and its traced path; the decisions
// are the wrapped solver's, bit for bit.
type probe struct {
	inner *core.SolverAllocator
	st    *stamps
}

// newAllocator returns the constructor engines call through
// SimConfig.NewAllocator and LiveConfig.NewAllocator.
func (st *stamps) newAllocator() func() core.Allocator {
	return func() core.Allocator { return &probe{inner: core.NewSolverAllocator(), st: st} }
}

func (p *probe) Name() string { return p.inner.Name() }

func (p *probe) Allocate(params core.Params, sp *core.SlotProblem) core.Allocation {
	start := p.enter(sp)
	a := p.inner.Allocate(params, sp)
	p.leave(start, sp, a)
	return a
}

func (p *probe) AllocateShared(params core.Params, sp *core.SlotProblem) core.Allocation {
	start := p.enter(sp)
	a := p.inner.AllocateShared(params, sp)
	p.leave(start, sp, a)
	return a
}

func (p *probe) AllocateTraced(params core.Params, sp *core.SlotProblem, tr *core.SlotTrace) core.Allocation {
	start := p.enter(sp)
	a := p.inner.AllocateTraced(params, sp, tr)
	p.leave(start, sp, a)
	return a
}

func (p *probe) enter(sp *core.SlotProblem) time.Time {
	now := time.Now()
	st := p.st
	if st.first.IsZero() {
		st.first = now
	}
	if sp.T != st.lastT {
		st.lastT = sp.T
		st.slotStarts = append(st.slotStarts, now.Sub(st.base))
		st.slotCPU = append(st.slotCPU, cpuTime())
	}
	return now
}

func (p *probe) leave(start time.Time, sp *core.SlotProblem, a core.Allocation) {
	st := p.st
	st.solveNs = append(st.solveNs, float64(time.Since(start).Nanoseconds()))
	st.users += int64(len(sp.Users))
	if sp.Budget > 0 {
		st.utilSum += a.Rate / sp.Budget
		st.utilN++
	}
}

// setup is the time from the engine call (base) to the first solve.
func (st *stamps) setup() time.Duration {
	if st.first.IsZero() {
		return 0
	}
	return st.first.Sub(st.base)
}

// slotGapsMs appends the wall time of every whole slot — the gap between
// successive slots' first solves, so it covers outcome accounting,
// arrivals, build and solve — in milliseconds.
func (st *stamps) slotGapsMs(dst []float64) []float64 {
	for i := 1; i < len(st.slotStarts); i++ {
		dst = append(dst, float64(st.slotStarts[i]-st.slotStarts[i-1])/1e6)
	}
	return dst
}

// slotCPUMs appends the process CPU time (all threads) spent in every whole
// slot, in milliseconds.
func (st *stamps) slotCPUMs(dst []float64) []float64 {
	for i := 1; i < len(st.slotCPU); i++ {
		dst = append(dst, float64(st.slotCPU[i]-st.slotCPU[i-1])/1e6)
	}
	return dst
}

// wallLayer accumulates one engine call's wall-clock figures: end is when
// the call returned and slots its session-slot count.
type wallLayer struct {
	rates, p50s, p99s, cpu99s []float64
}

func (wl *wallLayer) add(st *stamps, end time.Time, slots int) {
	wl.rates = append(wl.rates, float64(slots)/end.Sub(st.first).Seconds())
	gaps, cpu := st.slotGapsMs(nil), st.slotCPUMs(nil)
	wl.p50s = append(wl.p50s, quantile(gaps, 0.50))
	wl.p99s = append(wl.p99s, quantile(gaps, 0.99))
	wl.cpu99s = append(wl.cpu99s, quantile(cpu, 0.99))
}

// fill writes the load.* wall-clock metrics, medians over the calls.
func (wl *wallLayer) fill(m map[string]float64) {
	m["load.session_slots_per_s"] = median(wl.rates)
	m["load.slot_ms_p50"] = median(wl.p50s)
	m["load.slot_ms_p99"] = median(wl.p99s)
	m["load.slot_cpu_ms_p99"] = median(wl.cpu99s)
}

// solveLayer summarises the solves for the core.* per-layer metrics.
func (st *stamps) solveLayer(m map[string]float64) {
	var total float64
	for _, ns := range st.solveNs {
		total += ns
	}
	m["core.solve_us_p50"] = quantile(st.solveNs, 0.50) / 1e3
	m["core.solve_us_p99"] = quantile(st.solveNs, 0.99) / 1e3
	if st.users > 0 {
		m["core.solve_ns_per_user"] = total / float64(st.users)
	}
	if n := len(st.slotStarts); n > 0 {
		m["core.users_per_slot"] = float64(st.users) / float64(n)
	}
	if st.utilN > 0 {
		m["core.budget_util"] = st.utilSum / float64(st.utilN)
	}
}
