package main

import (
	"slices"
	"sort"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/load"
	"repro/internal/metrics"
	"repro/internal/motion"
	"repro/internal/netem"
	"repro/internal/tiles"
	"repro/internal/vrmath"
)

// layerTimes accumulates the traced replay's per-layer wall time and call
// counts. Each layer is timed once per slot over the whole batch of active
// sessions, so the clock reads cost two calls per layer per slot, not per
// session.
type layerTimes struct {
	wall time.Duration

	setupSessions                 int
	generate, capSlots, injector  time.Duration
	setupOther                    time.Duration // predictor and QoE accumulator construction
	sessionSlots                  int
	predict, selectTiles, rates   time.Duration
	chaosAdvance, delays, covered time.Duration
	observe, solve, outcome       time.Duration
	departures                    time.Duration
	coveredSlots                  int
}

// add folds another replay's times into lt.
func (lt *layerTimes) add(o *layerTimes) {
	lt.wall += o.wall
	lt.setupSessions += o.setupSessions
	lt.generate += o.generate
	lt.capSlots += o.capSlots
	lt.injector += o.injector
	lt.setupOther += o.setupOther
	lt.sessionSlots += o.sessionSlots
	lt.predict += o.predict
	lt.selectTiles += o.selectTiles
	lt.rates += o.rates
	lt.chaosAdvance += o.chaosAdvance
	lt.delays += o.delays
	lt.covered += o.covered
	lt.observe += o.observe
	lt.solve += o.solve
	lt.outcome += o.outcome
	lt.departures += o.departures
	lt.coveredSlots += o.coveredSlots
}

func (lt *layerTimes) attributed() time.Duration {
	return lt.generate + lt.capSlots + lt.injector + lt.setupOther +
		lt.predict + lt.selectTiles + lt.rates + lt.chaosAdvance + lt.delays +
		lt.covered + lt.observe + lt.solve + lt.outcome + lt.departures
}

// fill writes the replay's per-layer metrics into m.
func (lt *layerTimes) fill(m map[string]float64) {
	perSession := func(d time.Duration) float64 {
		if lt.setupSessions == 0 {
			return 0
		}
		return float64(d.Nanoseconds()) / 1e3 / float64(lt.setupSessions)
	}
	perSlot := func(d time.Duration) float64 {
		if lt.sessionSlots == 0 {
			return 0
		}
		return float64(d.Nanoseconds()) / float64(lt.sessionSlots)
	}
	m["session.setup_us"] = perSession(lt.generate + lt.capSlots + lt.injector + lt.setupOther)
	m["motion.generate_us"] = perSession(lt.generate)
	m["nettrace.capslots_us"] = perSession(lt.capSlots)
	m["chaos.injector_us"] = perSession(lt.injector)
	m["motion.predict_ns"] = perSlot(lt.predict)
	m["motion.observe_ns"] = perSlot(lt.observe)
	m["tiles.select_ns"] = perSlot(lt.selectTiles)
	m["tiles.ratetable_ns"] = perSlot(lt.rates)
	m["netem.delaytable_ns"] = perSlot(lt.delays)
	m["chaos.advance_ns"] = perSlot(lt.chaosAdvance)
	m["metrics.outcome_ns"] = perSlot(lt.outcome + lt.departures)
	if lt.sessionSlots > 0 {
		m["motion.covered_frac"] = float64(lt.coveredSlots) / float64(lt.sessionSlots)
	}
	if lt.wall > 0 {
		m["load.unattributed_frac"] = float64(lt.wall-lt.attributed()) / float64(lt.wall)
	}
}

// replaySession is one active session's state in the replay, kept exactly
// as load.Simulate keeps it.
type replaySession struct {
	spec  load.SessionSpec
	trace motion.Trace
	caps  []float64
	pred  *motion.Predictor
	acc   *metrics.UserQoE
	inj   *chaos.Injector

	t          int
	sumViewedQ float64
	covered    int
	missed     int
	served     int

	// Per-slot values carried between the batched layers.
	actual, predicted vrmath.Pose
	cell              tiles.CellID
	capMbps           float64
	cov, dropped      bool
	sel               []tiles.TileID
	rates, delays     []float64
}

func (s *replaySession) delta() float64 { return (1 + float64(s.covered)) / float64(1+s.t) }

func (s *replaySession) meanQ() float64 {
	if s.t == 0 {
		return 0
	}
	return s.sumViewedQ / float64(s.t)
}

// replay re-runs load.Simulate's serial slot loop (Workers = 1, no
// recorder, tracer, SLO or breaker) from the packages' public functions,
// timing each layer per slot. Its report must be bit-identical to
// Simulate's; the caller compares fingerprints and rejects the layer
// numbers otherwise.
func replay(w *load.Workload, cfg load.SimConfig, st *stamps) (*load.RunReport, *layerTimes) {
	start := time.Now()
	var lt layerTimes
	params := core.DefaultSystemParams()
	window := motion.DefaultWindow
	coverage := motion.DefaultCoverage()
	horizon := w.Cfg.HorizonSlots
	sps := w.Cfg.SlotsPerSecond
	if sps <= 0 {
		sps = 60
	}
	slotMs := 1000 / sps
	deadlineMs := 2 * slotMs
	alloc := st.newAllocator()().(core.SharedAllocator)
	sizeModel := tiles.NewSizeModel(0)
	qoeParams := metrics.QoEParams{Alpha: params.Alpha, Beta: params.Beta}

	byArrive := make(map[int][]load.SessionSpec)
	for _, s := range w.Sessions {
		byArrive[s.ArriveSlot] = append(byArrive[s.ArriveSlot], s)
	}
	report := &load.RunReport{
		Mode:           "sim",
		Algorithm:      cfg.AllocName,
		HorizonSlots:   horizon,
		Spawned:        len(w.Sessions),
		PeakConcurrent: w.PeakConcurrent(),
		SlotQuality:    make([]float64, 0, horizon),
	}
	finish := func(s *replaySession) {
		out := load.SessionOutcome{
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
		report.Outcomes = append(report.Outcomes, out)
		report.Completed++
	}

	serverInj := chaos.NewServerInjector(cfg.Chaos)
	var active, arrivals []*replaySession
	var users []core.UserInput
	var problem core.SlotProblem
	clock := time.Now()
	lap := func(d *time.Duration) {
		now := time.Now()
		*d += now.Sub(clock)
		clock = now
	}

	for slot := 0; slot < horizon; slot++ {
		clock = time.Now()
		// Arrivals: per-session set-up, one layer at a time.
		arrivals = arrivals[:0]
		for _, spec := range byArrive[slot] {
			arrivals = append(arrivals, &replaySession{spec: spec})
		}
		if len(arrivals) > 0 {
			for _, s := range arrivals {
				s.trace = w.MotionTrace(s.spec, 0)
			}
			lap(&lt.generate)
			for _, s := range arrivals {
				s.caps = w.CapSlots(s.spec)
			}
			lap(&lt.capSlots)
			for _, s := range arrivals {
				s.inj = chaos.NewInjector(cfg.Chaos, s.spec.ID)
			}
			lap(&lt.injector)
			for _, s := range arrivals {
				s.pred = motion.NewPredictor(window)
				s.acc = metrics.NewUserQoE(qoeParams)
				s.rates = make([]float64, tiles.Levels)
				s.delays = make([]float64, tiles.Levels)
			}
			active = append(active, arrivals...)
			lt.setupSessions += len(arrivals)
			lap(&lt.setupOther)
		}
		// Departures.
		next := active[:0]
		for _, s := range active {
			if slot >= s.spec.DepartSlot {
				finish(s)
				continue
			}
			next = append(next, s)
		}
		active = next
		lap(&lt.departures)
		if len(active) == 0 {
			report.SlotQuality = append(report.SlotQuality, 0)
			continue
		}
		serverInj.Advance(slot)
		stallMs := float64(serverInj.StallFor()+serverInj.AckDelay()) / float64(time.Millisecond)
		lt.sessionSlots += len(active)

		// Prediction.
		for _, s := range active {
			local := slot - s.spec.ArriveSlot
			s.actual = s.trace[local]
			s.predicted = s.pred.Predict()
			if local <= window {
				s.predicted = s.actual
			}
		}
		lap(&lt.predict)
		// Tile selection.
		for _, s := range active {
			s.cell = tiles.CellFor(s.predicted.Pos)
			s.sel = tiles.ForViewAppend(s.sel[:0], s.predicted, coverage.FoV, coverage.MarginDeg)
		}
		lap(&lt.selectTiles)
		// Rate tables.
		for _, s := range active {
			sizeModel.RateTableInto(s.rates, s.cell, s.sel)
		}
		lap(&lt.rates)
		// Chaos: advance each session's injector, scale its link, draw
		// its per-slot drop.
		for _, s := range active {
			s.capMbps = s.caps[slot-s.spec.ArriveSlot]
			s.inj.Advance(slot)
			s.capMbps *= s.inj.SimCapFactor()
			s.dropped = s.inj.Drop()
		}
		lap(&lt.chaosAdvance)
		// M/M/1 delay tables.
		for _, s := range active {
			netem.DelayTableMsInto(s.delays, s.rates, s.capMbps, slotMs)
		}
		lap(&lt.delays)
		// Coverage indicator.
		for _, s := range active {
			s.cov = coverage.Covered(s.predicted, s.actual)
			if s.cov {
				lt.coveredSlots++
			}
		}
		lap(&lt.covered)
		// Predictor update.
		for _, s := range active {
			s.pred.Observe(s.actual)
		}
		lap(&lt.observe)

		// Solve.
		users = slices.Grow(users[:0], len(active))[:len(active)]
		for i, s := range active {
			users[i] = core.UserInput{Rate: s.rates, Delay: s.delays, Delta: s.delta(), MeanQ: s.meanQ(), Cap: s.capMbps}
		}
		problem.T, problem.Budget, problem.Users = slot+1, cfg.BudgetMbps, users
		allocation := alloc.AllocateShared(params, &problem)
		lap(&lt.solve)

		// Outcome accounting.
		overloadMs := 0.0
		if allocation.Rate > cfg.BudgetMbps && cfg.BudgetMbps > 0 {
			overloadMs = (allocation.Rate/cfg.BudgetMbps - 1) * slotMs
		}
		qualitySum := 0.0
		for i, s := range active {
			q := allocation.Levels[i]
			rate := s.rates[q-1]
			delay := netem.DelayMs(rate, s.capMbps, slotMs) + overloadMs + stallMs
			covered := s.cov
			missed := s.dropped || delay > deadlineMs
			if missed {
				covered = false
				delay = deadlineMs
			}
			s.served++
			if missed {
				s.missed++
			}
			s.t++
			if covered {
				s.covered++
				s.sumViewedQ += float64(q)
			}
			s.acc.Observe(q, covered, delay)
			s.acc.ObserveFrame(!missed)
			if !missed {
				qualitySum += float64(q)
			}
		}
		report.SlotQuality = append(report.SlotQuality, qualitySum/float64(len(active)))
		lap(&lt.outcome)
	}
	clock = time.Now()
	for _, s := range active {
		finish(s)
	}
	sort.Slice(report.Outcomes, func(i, j int) bool { return report.Outcomes[i].ID < report.Outcomes[j].ID })
	lap(&lt.departures)
	lt.wall = time.Since(start)
	return report, &lt
}
