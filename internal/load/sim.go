package load

import (
	"fmt"
	"runtime"

	"repro/internal/baseline"
	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/motion"
	"repro/internal/obs"
	"repro/internal/obs/tsdb"
	"repro/internal/trace"
)

// SimConfig parametrizes the deterministic virtual-time engine. No wall
// clock, no sockets, no goroutines at rest: the same workload and config
// always produce the bit-identical RunReport, which is what makes recorded
// workloads usable as regression reproducers. Workers shards the per-slot
// build phase across goroutines, but every shard writes only its own
// session's index and the solve stays serial, so the report is
// bit-identical at any worker count.
type SimConfig struct {
	Params core.Params
	// NewAllocator builds the allocator (fresh per run, since some keep
	// state). Nil means the paper's proposed algorithm.
	NewAllocator func() core.Allocator
	// AllocName labels the report.
	AllocName string
	// BudgetMbps is the server's shared throughput budget B(t).
	BudgetMbps float64
	// DeadlineSlots is the display-pipeline tolerance: a frame whose
	// delivery delay exceeds DeadlineSlots slot-times misses its deadline
	// (default 2, matching the decode-at-t+1/display-at-t+2 pipelining).
	DeadlineSlots   int
	PredictorWindow int
	Coverage        motion.CoverageConfig
	SizeModelSeed   uint64
	// Metrics, when non-nil, receives the loadgen histograms (per-session
	// QoE, deadline-miss fraction).
	Metrics *obs.Registry
	// Tracer, when non-nil, emits the same span schema as the live engine,
	// on the virtual slot clock: slot boundaries become span timestamps, so
	// a sim run and a live run are analyzable by the same tooling. The
	// slot.decide span's duration is the measured wall time of the solve
	// (the one real cost inside a virtual-time slot); all transport spans
	// are purely virtual.
	Tracer *trace.Tracer
	// TraceEpoch salts trace-ID derivation, as in LiveConfig.
	TraceEpoch uint64
	// SLO, when non-nil, is fed each session's per-slot display outcome.
	SLO *obs.SLOMonitor
	// Chaos, when non-nil, injects the profile's faults into the virtual
	// network (per-session capacity cliffs, blackouts, slot drops) and the
	// virtual server (stall, slow ACK, both charged as delay).
	Chaos *chaos.Profile
	// Breaker, when non-nil, caps each session's allocated quality while
	// its SLO burns (graceful degradation: quality drops before users do).
	// Requires SLO, whose state feeds the breaker every slot.
	Breaker *obs.Breaker
	// Recorder, when non-nil, receives one decision SlotRecord per allocated
	// slot, with stable SessionIDs (indices shift under churn, IDs do not)
	// and the per-user objective decomposition.
	Recorder *obs.Recorder
	// CounterfactualK opts recorded decisions into top-K counterfactual
	// capture on heap-solver allocators (see core.SlotTrace.TopK). Zero
	// records no alternatives.
	CounterfactualK int
	// RegretRef, when set with Recorder, re-solves every recorded slot with
	// the pseudo-polynomial DP optimum and fills the record's regret fields
	// (OptimalValue, Regret, UserRegret) against it.
	RegretRef bool
	// RegretResolution is the DP budget grid step (<= 0: budget/2048).
	RegretResolution float64
	// Workers shards the per-slot build phase (prediction, tile selection,
	// rate/delay tables, per-session chaos advance) across this many
	// goroutines. The merged solve and the outcome accounting stay serial,
	// so the report is bit-identical at any setting. 0 means GOMAXPROCS;
	// 1 keeps the engine fully serial.
	Workers int
	// Health, when non-nil, runs one health-sampler pass per virtual slot
	// (after the slot's outcomes have landed in Metrics/SLO), so the sim
	// produces the same multi-resolution series schema as a live server.
	Health *tsdb.Sampler
}

func (c SimConfig) withDefaults() SimConfig {
	if c.Params.Levels == 0 {
		c.Params = core.DefaultSystemParams()
	}
	if c.NewAllocator == nil {
		c.NewAllocator = baseline.MustFactory("proposed")
		if c.AllocName == "" {
			c.AllocName = "proposed"
		}
	}
	if c.AllocName == "" {
		c.AllocName = "custom"
	}
	if c.BudgetMbps <= 0 {
		c.BudgetMbps = 400
	}
	if c.DeadlineSlots <= 0 {
		c.DeadlineSlots = 2
	}
	if c.PredictorWindow <= 0 {
		c.PredictorWindow = motion.DefaultWindow
	}
	if c.Coverage == (motion.CoverageConfig{}) {
		c.Coverage = motion.DefaultCoverage()
	}
	if c.Workers == 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.Workers < 1 {
		c.Workers = 1
	}
	return c
}

// Simulate replays the workload through the full per-slot decision pipeline
// (prediction, tile selection, rate tables, M/M/1 delay, allocation) in
// virtual time, with session churn: sessions join the allocation problem at
// their arrival slot and leave at departure. Overload is modelled on the
// shared egress: when the allocated total exceeds the budget, the excess
// serialization time is charged to every active session's delay.
//
// The per-slot build phase shards across cfg.Workers goroutines: every
// active session occupies its arrival-order index, each shard writes only
// its own sessions' indices and touches only per-session state (predictor,
// chaos injector, scratch tables), and the merged solve plus the outcome
// accounting stay serial — so worker count never changes a single bit of
// the report.
func Simulate(w *Workload, cfg SimConfig) (*RunReport, error) {
	cfg = cfg.withDefaults()
	if len(w.Sessions) == 0 {
		return nil, fmt.Errorf("load: empty workload")
	}
	horizon := w.Cfg.HorizonSlots
	byArrive := make(map[int][]SessionSpec)
	for _, s := range w.Sessions {
		byArrive[s.ArriveSlot] = append(byArrive[s.ArriveSlot], s)
	}

	report := &RunReport{
		Mode:           "sim",
		Algorithm:      cfg.AllocName,
		HorizonSlots:   horizon,
		Spawned:        len(w.Sessions),
		PeakConcurrent: w.PeakConcurrent(),
	}
	report.SlotQuality = make([]float64, 0, horizon)
	c := newSlotCore(w, &cfg, report)
	solver := c.newSolver()
	var active []*simSession

	for slot := 0; slot < horizon; slot++ {
		// Arrivals.
		for _, spec := range byArrive[slot] {
			s := c.newSession(spec)
			active = append(active, &s)
		}
		// Departures.
		next := active[:0]
		for _, s := range active {
			if slot >= s.spec.DepartSlot {
				c.finish(s)
				continue
			}
			next = append(next, s)
		}
		active = next
		if len(active) == 0 {
			report.SlotQuality = append(report.SlotQuality, 0)
			cfg.Health.Sample(int64(slot))
			continue
		}

		stallMs := c.stallMs(slot)
		c.build(slot, active, 1, cfg.Workers)
		allocation, solveNs := c.solve(solver, slot, cfg.BudgetMbps)
		qualitySum := c.settle(slot, allocation, cfg.BudgetMbps, stallMs, solveNs)
		report.SlotQuality = append(report.SlotQuality, qualitySum/float64(len(active)))
		cfg.Health.Sample(int64(slot))
	}
	// Sessions alive at the horizon end complete there.
	for _, s := range active {
		c.finish(s)
	}
	sortOutcomes(report.Outcomes)
	return report, nil
}
