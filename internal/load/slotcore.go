package load

import (
	"slices"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/motion"
	"repro/internal/netem"
	"repro/internal/obs"
	"repro/internal/tiles"
	"repro/internal/trace"
)

// simSession is one active session's streaming state, mirroring the server's
// per-session estimators (the embedded core.SessionQoE is the delta_n and
// qbar_n state server.session keeps).
type simSession struct {
	spec  SessionSpec
	trace motion.Trace
	caps  []float64
	pred  *motion.Predictor
	acc   *metrics.UserQoE
	inj   *chaos.Injector // nil without a chaos profile

	core.SessionQoE
	missed int
	served int

	// Per-slot build scratch, reused across slots. The rate/delay tables
	// are consumed by the solve and settle phases within the same slot,
	// before the next build overwrites them.
	selBuf    []tiles.TileID
	ratesBuf  []float64
	delaysBuf []float64
}

// slotPlan is what settle needs of one built row beyond the allocation.
type slotPlan struct {
	sess    *simSession
	cov     bool
	cap_    float64
	dropped bool // chaos lost this slot's content on the wire
}

// slotCore is the virtual-time slot pipeline both engines run: build each
// in-service session's row of the slot problem, solve Algorithm 1 over the
// rows, settle the outcomes. Simulate runs it once per slot over its whole
// active set; SimulateFleet once per alive shard, over that shard's
// sessions, against the shard's budget share and allocator.
type slotCore struct {
	cfg        *SimConfig
	w          *Workload
	report     *RunReport
	lm         loadMetrics
	sizeModel  *tiles.SizeModel
	qoeParams  metrics.QoEParams
	serverInj  *chaos.ServerInjector
	regretRef  core.Allocator
	slotMs     float64
	deadlineMs float64

	// The current solve's rows, reused across slots and shards: every
	// build is solved and settled before the next one overwrites them.
	users   []core.UserInput
	plans   []slotPlan
	problem core.SlotProblem
}

func newSlotCore(w *Workload, cfg *SimConfig, report *RunReport) *slotCore {
	sps := w.Cfg.SlotsPerSecond
	if sps <= 0 {
		sps = 60
	}
	c := &slotCore{
		cfg:       cfg,
		w:         w,
		report:    report,
		lm:        newLoadMetrics(cfg.Metrics),
		sizeModel: tiles.NewSizeModel(cfg.SizeModelSeed),
		qoeParams: metrics.QoEParams{Alpha: cfg.Params.Alpha, Beta: cfg.Params.Beta},
		serverInj: chaos.NewServerInjector(cfg.Chaos),
		slotMs:    1000 / sps,
	}
	c.deadlineMs = float64(cfg.DeadlineSlots) * c.slotMs
	if cfg.Recorder.Enabled() && cfg.RegretRef {
		c.regretRef = core.DPOptimal{Resolution: cfg.RegretResolution}
	}
	return c
}

func (c *slotCore) newSession(spec SessionSpec) simSession {
	return simSession{
		spec:  spec,
		trace: c.w.MotionTrace(spec, 0),
		caps:  c.w.CapSlots(spec),
		pred:  motion.NewPredictor(c.cfg.PredictorWindow),
		acc:   metrics.NewUserQoE(c.qoeParams),
		inj:   chaos.NewInjector(c.cfg.Chaos, spec.ID),
	}
}

// stallMs advances the server-side faults to slot and returns the delay a
// stalled pipeline or slowed ACK path charges to every session this slot.
func (c *slotCore) stallMs(slot int) float64 {
	c.serverInj.Advance(slot)
	return float64(c.serverInj.StallFor()+c.serverInj.AckDelay()) / float64(time.Millisecond)
}

// build fills the session's row of this slot's problem on its own scratch:
// predicted pose, tile selection, rate table, link capacity and M/M/1
// delay table. The link capacity is the trace's, times the chaos factor,
// times scale (1 in Simulate, the shard's degrade factor in the fleet). It
// touches only the session's own state and shared immutable inputs.
func (s *simSession) build(c *slotCore, slot int, scale float64) (core.UserInput, slotPlan) {
	local := slot - s.spec.ArriveSlot
	actual := s.trace[local]
	predicted := s.pred.Predict()
	if local <= c.cfg.PredictorWindow {
		predicted = actual
	}
	cell := tiles.CellFor(predicted.Pos)
	s.selBuf = tiles.ForViewAppend(s.selBuf[:0], predicted, c.cfg.Coverage.FoV, c.cfg.Coverage.MarginDeg)
	if s.ratesBuf == nil {
		s.ratesBuf = make([]float64, tiles.Levels)
		s.delaysBuf = make([]float64, tiles.Levels)
	}
	c.sizeModel.RateTableInto(s.ratesBuf, cell, s.selBuf)
	s.inj.Advance(slot)
	// Chaos capacity faults: cliffs scale the link, a blackout zeroes it
	// (MM1Delay then saturates and the frame misses); a per-slot drop loses
	// the slot's content outright.
	cap_ := s.caps[local] * s.inj.SimCapFactor() * scale
	netem.DelayTableMsInto(s.delaysBuf, s.ratesBuf, cap_, c.slotMs)
	s.pred.Observe(actual)
	return core.UserInput{
			Rate:  s.ratesBuf,
			Delay: s.delaysBuf,
			Delta: s.Delta(),
			MeanQ: s.MeanQ(),
			Cap:   cap_,
		}, slotPlan{
			sess: s, cov: c.cfg.Coverage.Covered(predicted, actual),
			cap_: cap_, dropped: s.inj.Drop(),
		}
}

// build fills the solve's rows from sessions, in order, sharded across
// workers: each row is written only by its own session's build, so the rows
// are identical at any worker count.
func (c *slotCore) build(slot int, sessions []*simSession, scale float64, workers int) {
	n := len(sessions)
	c.users = slices.Grow(c.users[:0], n)[:n]
	c.plans = slices.Grow(c.plans[:0], n)[:n]
	parallelFor(n, workers, func(i int) {
		c.users[i], c.plans[i] = sessions[i].build(c, slot, scale)
	})
}

// slotSolver is one allocator as the slot core drives it. Simulate owns
// one; every fleet shard owns its own, since some allocators keep state
// and a real fleet runs one per server.
type slotSolver struct {
	alloc core.Allocator
	// shared is alloc's zero-clone path, set when nothing retains the
	// allocation past the slot (the recorder is off): heap-solver
	// allocators then hand back their own scratch instead of cloning it.
	shared core.SharedAllocator
}

func (c *slotCore) newSolver() slotSolver {
	sv := slotSolver{alloc: c.cfg.NewAllocator()}
	if sa, ok := sv.alloc.(core.SharedAllocator); ok && !c.cfg.Recorder.Enabled() {
		sv.shared = sa
	}
	return sv
}

// solve runs the allocator over the built rows against budget, records the
// decision when the recorder is on, and returns the allocation with the
// solve's wall time (measured only when tracing; 0 otherwise).
func (c *slotCore) solve(sv slotSolver, slot int, budget float64) (core.Allocation, int64) {
	cfg := c.cfg
	c.problem.T, c.problem.Budget, c.problem.Users = slot+1, budget, c.users
	var solveStart time.Time
	if cfg.Tracer.Enabled() {
		solveStart = time.Now()
	}
	var allocation core.Allocation
	var slotTr *core.SlotTrace
	if cfg.Recorder.Enabled() {
		if ta, ok := sv.alloc.(core.TracingAllocator); ok {
			slotTr = &core.SlotTrace{TopK: cfg.CounterfactualK}
			allocation = ta.AllocateTraced(cfg.Params, &c.problem, slotTr)
		}
	}
	if slotTr == nil {
		if sv.shared != nil {
			// Levels alias the solver's scratch, valid until its next
			// solve; settle consumes them first.
			allocation = sv.shared.AllocateShared(cfg.Params, &c.problem)
		} else {
			allocation = sv.alloc.Allocate(cfg.Params, &c.problem)
		}
	}
	var solveNs int64
	if cfg.Tracer.Enabled() {
		solveNs = time.Since(solveStart).Nanoseconds()
	}
	if cfg.Recorder.Enabled() {
		ids := make([]uint32, len(c.plans))
		for i := range c.plans {
			ids[i] = c.plans[i].sess.spec.ID
		}
		recordSimSlot(cfg, slot, &c.problem, allocation, slotTr, ids, c.regretRef)
	}
	return allocation, solveNs
}

// settle charges the allocation to every built row and returns the rows'
// slot-quality sum (a missed frame counts 0).
func (c *slotCore) settle(slot int, allocation core.Allocation, budget, stallMs float64, solveNs int64) float64 {
	cfg := c.cfg
	// Shared-egress overload: the allocator respects the budget when it
	// can, but when even the mandatory minimum levels exceed it (the
	// overload regime capacity search hunts for), delivering R Mbps of slot
	// content over a B-Mbps egress takes R/B slot-times; the excess is
	// charged to every session.
	overloadMs := 0.0
	if allocation.Rate > budget && budget > 0 {
		overloadMs = (allocation.Rate/budget - 1) * c.slotMs
	}
	slotNs := int64(float64(slot) * c.slotMs * 1e6)

	qualitySum := 0.0
	for i, p := range c.plans {
		s, q := p.sess, allocation.Levels[i]
		// Graceful degradation: while the session's SLO burns, the breaker
		// caps its quality — shedding load (bytes) before shedding the user.
		if bcap := cfg.Breaker.Cap(s.spec.ID); bcap > 0 && q > bcap {
			q = bcap
			c.report.DegradedSlots++
		}
		rate := s.ratesBuf[q-1]
		delay := netem.DelayMs(rate, p.cap_, c.slotMs) + overloadMs + stallMs
		covered := p.cov
		missed := p.dropped || delay > c.deadlineMs
		if missed {
			// The frame is dropped, not displayed late: clamp the charged
			// delay at the pipeline bound (as the client does) and void its
			// coverage.
			covered = false
			delay = c.deadlineMs
		}
		qualitySum += c.observe(s, q, covered, missed, delay)

		if tr := cfg.Tracer; tr.Enabled() {
			user, vslot := s.spec.ID, uint32(slot)
			tid := trace.TileTraceID(cfg.TraceEpoch, user, vslot)
			delayNs := int64(delay * 1e6)
			// rate Mbps over a slotMs slot = rate*slotMs*125 bytes.
			bytes := int(rate * c.slotMs * 125)

			d := tr.StartAt(tid, trace.StageDecide, trace.SideServer, user, vslot, slotNs)
			d.SetAlgo(cfg.AllocName)
			d.SetLevel(q)
			d.SetTiles(len(c.plans))
			d.EndAt(slotNs + solveNs)

			tx := tr.StartAt(tid, trace.StageSend, trace.SideServer, user, vslot, slotNs)
			tx.SetLevel(q)
			tx.SetBytes(bytes)
			tx.EndAt(slotNs + delayNs)

			rx := tr.StartAt(tid, trace.StageRecv, trace.SideClient, user, vslot, slotNs)
			rx.SetBytes(bytes)
			rx.EndAt(slotNs + delayNs)

			disp := tr.StartAt(tid, trace.StageDisplay, trace.SideClient, user, vslot, slotNs+delayNs)
			disp.SetLevel(q)
			if missed {
				disp.SetOutcome(trace.OutcomeMissed)
			} else {
				disp.SetOutcome(trace.OutcomeDisplayed)
			}
			disp.EndAt(slotNs + delayNs)
		}
	}
	return qualitySum
}

// observe accounts one session-slot — its QoE state, the SLO window and
// the breaker — and returns the displayed quality (0 for a missed frame).
func (c *slotCore) observe(s *simSession, q int, covered, missed bool, delayMs float64) float64 {
	s.settle(q, covered, missed, delayMs)
	quality := float64(q)
	if missed {
		quality = 0
	}
	c.cfg.SLO.ObserveSlot(s.spec.ID, !missed, quality)
	c.cfg.Breaker.Observe(s.spec.ID, c.cfg.SLO.State(s.spec.ID))
	return quality
}

// settle folds one slot's outcome into the session's served/missed counts,
// its delta_n/qbar_n state and its QoE accumulator.
func (s *simSession) settle(q int, covered, missed bool, delayMs float64) {
	s.served++
	if missed {
		s.missed++
	}
	s.Observe(q, covered)
	s.acc.Observe(q, covered, delayMs)
	s.acc.ObserveFrame(!missed)
}

// outcome is the session's end-of-run accounting.
func (s *simSession) outcome() SessionOutcome {
	out := SessionOutcome{
		ID:       s.spec.ID,
		Slots:    s.acc.Slots(),
		QoE:      s.acc.QoE(),
		Quality:  s.acc.AvgQuality(),
		DelayMs:  s.acc.AvgDelay(),
		Variance: s.acc.Variance(),
		Coverage: s.acc.CoverageRate(),
	}
	if s.served > 0 {
		out.MissFrac = float64(s.missed) / float64(s.served)
	}
	return out
}

// finish retires a departing session from the SLO and breaker state and
// adds its outcome to the report.
func (c *slotCore) finish(s *simSession) {
	c.cfg.SLO.Retire(s.spec.ID)
	c.cfg.Breaker.Retire(s.spec.ID)
	out := s.outcome()
	c.report.Outcomes = append(c.report.Outcomes, out)
	c.report.Completed++
	c.lm.observeOutcome(out)
}

// recordSimSlot builds and records the decision flight-recorder entry for
// one simulated slot: the chosen allocation with its per-user objective
// decomposition, the trace's rejections and counterfactual alternatives,
// and (when a regret reference is configured) the DP optimum's view of the
// same problem. Every slice is freshly allocated because the recorder ring
// and the attributor alias them.
func recordSimSlot(cfg *SimConfig, slot int, p *core.SlotProblem, a core.Allocation,
	tr *core.SlotTrace, ids []uint32, ref core.Allocator) {
	rec := obs.SlotRecord{
		Algorithm:  cfg.AllocName,
		Slot:       slot,
		Levels:     a.Levels,
		Value:      a.Value,
		RateMbps:   a.Rate,
		BudgetMbps: p.Budget,
		SessionIDs: ids,
		UserValues: make([]float64, len(p.Users)),
	}
	if p.Budget > 0 {
		rec.Utilization = a.Rate / p.Budget
	}
	if tr != nil {
		rec.Branch = tr.Branch
		rec.Upgrades = tr.Upgrades
		rec.Rejections = tr.Rejections
		rec.Alternatives = tr.Alternatives
	}
	for i := range p.Users {
		terms := core.ObjectiveTerms(cfg.Params, p.T, p.Users[i], a.Levels[i])
		rec.UserValues[i] = terms.Quality - terms.Delay - terms.Variance
		rec.QualityTerm += terms.Quality
		rec.DelayTerm += terms.Delay
		rec.VarianceTerm += terms.Variance
	}
	if ref != nil {
		opt := ref.Allocate(cfg.Params, p)
		rec.HasRegret = true
		rec.OptimalValue = opt.Value
		// Sub-1e-9 differences are summation-order noise between the DP and
		// greedy engines evaluating the same allocation; call them a tie.
		if r := opt.Value - a.Value; r > 1e-9 {
			rec.Regret = r
		}
		rec.UserRegret = make([]float64, len(p.Users))
		for i := range p.Users {
			rec.UserRegret[i] = core.Objective(cfg.Params, p.T, p.Users[i], opt.Levels[i]) - rec.UserValues[i]
		}
	}
	cfg.Recorder.Record(&rec)
}
