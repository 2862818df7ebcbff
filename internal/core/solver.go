package core

import (
	"repro/internal/knapsack"
)

// SolverAllocator is Algorithm 1 on the heap-based incremental
// knapsack.Solver with reusable lowering buffers: a steady-state slot
// solve reuses the same scratch for the objective tables, the item views
// and the solver's heap, so the only per-Allocate allocation is the Levels
// slice handed back to the caller (which call sites retain, e.g. in flight
// recorder records).
//
// Decisions, values and traces are bit-identical to DVGreedy — both run
// the same Algorithm 1 over the same lowered instance; the solver engine
// is differentially tested against the original scan in
// internal/knapsack. A SolverAllocator is safe for sequential reuse
// across slots (the Allocator contract) but not for concurrent use; build
// one per goroutine.
type SolverAllocator struct {
	solver knapsack.Solver

	// Lowering scratch: the objective tables, the item views over them and
	// the problem header, rebuilt in place each slot.
	items  []knapsack.Item
	values []float64
	prob   knapsack.Problem
}

// NewSolverAllocator returns a fresh solver-backed Algorithm 1 allocator.
func NewSolverAllocator() *SolverAllocator { return &SolverAllocator{} }

// Name implements Allocator. It reports the same algorithm name as
// DVGreedy: both run the same engine, only the scratch ownership differs.
func (a *SolverAllocator) Name() string { return "dvgreedy" }

// lower rebuilds the knapsack view of p on the allocator's scratch, with
// the same lowering (and so the same float arithmetic) as toKnapsack,
// keeping solutions bit-identical to the DVGreedy path.
func (a *SolverAllocator) lower(params Params, p *SlotProblem) *knapsack.Problem {
	n, levels := len(p.Users), params.Levels
	if cap(a.values) < n*levels {
		a.values = make([]float64, n*levels)
	}
	if cap(a.items) < n {
		a.items = make([]knapsack.Item, n)
	}
	items := a.items[:n]
	lowerInto(params, p, items, a.values[:n*levels])
	a.prob = knapsack.Problem{Items: items, Budget: p.Budget}
	return &a.prob
}

// Allocate implements Allocator.
func (a *SolverAllocator) Allocate(params Params, p *SlotProblem) Allocation {
	return fromKnapsack(a.solver.Combined(a.lower(params, p)).Clone())
}

// AllocateTraced implements TracingAllocator; the trace is identical to
// DVGreedy's.
func (a *SolverAllocator) AllocateTraced(params Params, p *SlotProblem, tr *SlotTrace) Allocation {
	if tr == nil {
		return a.Allocate(params, p)
	}
	var kt knapsack.CombinedTrace
	kt.Density.TopK, kt.Value.TopK = tr.TopK, tr.TopK
	sol := a.solver.CombinedTraced(a.lower(params, p), &kt)
	pass := kt.Density
	if kt.Picked == knapsack.BranchValue {
		pass = kt.Value
	}
	fillTrace(tr, kt.Picked.String(), pass)
	return fromKnapsack(sol.Clone())
}

// AllocateShared implements SharedAllocator: Allocate without the
// defensive clone. The returned Levels alias solver scratch and are only
// valid until the next call on this allocator — the obs-disabled slot-loop
// hot path uses it to stay allocation-free.
func (a *SolverAllocator) AllocateShared(params Params, p *SlotProblem) Allocation {
	return fromKnapsack(a.solver.Combined(a.lower(params, p)))
}

// SharedAllocator is an Allocator that can additionally hand back
// scratch-aliased allocations (no per-slot Levels clone) for steady-state
// slot loops that must not allocate. Callers own nothing: the result is
// invalidated by the next Allocate/AllocateShared call.
type SharedAllocator interface {
	Allocator
	AllocateShared(params Params, p *SlotProblem) Allocation
}

// LowerProblem exposes the SlotProblem -> nonlinear-knapsack lowering used
// by every Algorithm 1 allocator, for benchmarks and tools that want to
// drive internal/knapsack solvers directly.
func LowerProblem(params Params, p *SlotProblem) *knapsack.Problem {
	return toKnapsack(params, p)
}

var (
	_ Allocator        = (*SolverAllocator)(nil)
	_ TracingAllocator = (*SolverAllocator)(nil)
	_ SharedAllocator  = (*SolverAllocator)(nil)
)
