// Package sim is the trace-based simulation platform of Section IV. It
// replays 6-DoF motion traces and network-throughput traces through the
// full decision pipeline — motion prediction, tile selection, rate tables
// from the content size model, M/M/1 delivery delay (eq. (13)) — and runs
// any set of core.Allocator implementations over identical inputs,
// collecting the per-user QoE components whose CDFs are Figs. 2 and 3.
package sim

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/estimate"
	"repro/internal/metrics"
	"repro/internal/motion"
	"repro/internal/netem"
	"repro/internal/nettrace"
	"repro/internal/obs"
	"repro/internal/tiles"
	"repro/internal/trace"
)

// Config parametrizes one simulation campaign.
type Config struct {
	Users          int     // N (paper: 5 and 30)
	Seconds        float64 // trace length (paper: 300)
	SlotsPerSecond float64 // display rate (paper: 60)
	Runs           int     // independent trace draws per user (paper: 100)
	Seed           int64
	Params         core.Params
	// ServerMbpsPerUser scales the shared budget: B = value * N (paper: 36).
	ServerMbpsPerUser float64
	// IncludeOptimal adds the per-slot brute-force optimum (paper: 5 users
	// only; cost is L^N per slot).
	IncludeOptimal  bool
	PredictorWindow int
	Coverage        motion.CoverageConfig
	NetConfig       nettrace.Config
	// NetKinds optionally overrides the trace profile per user (index
	// modulo length). Empty means the paper's half-broadband/half-LTE mix.
	NetKinds []nettrace.Kind
	// EstimateAlpha switches the simulation from the paper's Section IV
	// assumption ("the server has the perfect knowledge of the delay and
	// throughput") to the real system's imperfect estimation: algorithms
	// see an EMA with this smoothing factor over one-slot-delayed, noisy
	// throughput samples, while the environment applies the truth. 0 means
	// perfect knowledge. This reproduces the mechanism behind Figs. 7/8
	// deterministically.
	EstimateAlpha float64
	// EstimateNoise is the relative std-dev of each throughput sample fed
	// to the estimator (only with EstimateAlpha > 0).
	EstimateNoise float64
	// Recorder, when non-nil, receives one obs.SlotRecord per (slot,
	// algorithm): chosen levels, greedy branch, quality_verification
	// rejections, budget utilization, objective terms, and — when the
	// brute-force optimum runs in the same campaign — per-slot and
	// per-user regret versus it. Nil disables tracing with near-zero
	// overhead.
	Recorder *obs.Recorder
	// CounterfactualK, when positive, additionally records each slot's
	// top-K unchosen upgrades (the counterfactual alternatives of the
	// greedy pass) in the flight-recorder records. Requires Recorder.
	CounterfactualK int
	// Tracer, when non-nil, emits virtual-time spans — the same schema as
	// the live engine — for the campaign's first run only (the remaining
	// runs are statistical repeats). The trace epoch is salted per
	// algorithm so replays over identical inputs occupy distinct trace
	// spaces instead of merging into one trace.
	Tracer *trace.Tracer
	// TraceEpoch salts trace-ID derivation.
	TraceEpoch uint64
}

// DefaultConfig returns the paper's simulation parameters for n users.
// Seconds and Runs are scaled down from the paper's 300 s x 100 runs by
// default to keep a laptop run short; pass the full values explicitly to
// reproduce at scale.
func DefaultConfig(n int) Config {
	return Config{
		Users:             n,
		Seconds:           60,
		SlotsPerSecond:    60,
		Runs:              20,
		Seed:              1,
		Params:            core.DefaultSimParams(),
		ServerMbpsPerUser: 36,
		IncludeOptimal:    n <= 6,
		PredictorWindow:   motion.DefaultWindow,
		Coverage:          motion.DefaultCoverage(),
		NetConfig:         nettrace.DefaultConfig(),
	}
}

// AlgorithmFactory builds a fresh allocator per run, so stateful algorithms
// (Firefly's LRU clock, PAVQ's price) do not leak state across runs.
type AlgorithmFactory struct {
	Name string
	New  func() core.Allocator
}

// StandardAlgorithms returns the paper's comparison set from the allocator
// registry (baseline.AllocatorByName): Algorithm 1 ("proposed"), Firefly,
// and modified PAVQ. includeOptimal appends the per-slot brute-force
// optimum.
func StandardAlgorithms(includeOptimal bool) []AlgorithmFactory {
	names := []string{"proposed", "firefly", "pavq"}
	if includeOptimal {
		names = append(names, "optimal")
	}
	algs := make([]AlgorithmFactory, len(names))
	for i, name := range names {
		algs[i] = AlgorithmFactory{Name: name, New: baseline.MustFactory(name)}
	}
	return algs
}

// Result holds per-(run, user) samples of every QoE component for one
// algorithm; each slice has Runs*Users entries. Fairness has one Jain
// index per run (an extension beyond the paper's averaged metrics).
type Result struct {
	Name     string
	QoE      []float64
	Quality  []float64
	Delay    []float64
	Variance []float64
	Fairness []float64
}

// CDFs converts the samples into the four CDFs of a Fig. 2/3 row.
func (r *Result) CDFs() (qoe, quality, delay, variance *metrics.CDF) {
	return metrics.NewCDF(r.QoE), metrics.NewCDF(r.Quality),
		metrics.NewCDF(r.Delay), metrics.NewCDF(r.Variance)
}

// slotInput is the precomputed, algorithm-independent input of one
// (slot, user) pair.
type slotInput struct {
	rates   []float64 // f^R ladder of the predicted tile selection
	covered bool      // 1_n(t)
	cap_    float64   // B_n(t)
}

// Run executes the campaign and returns one Result per algorithm, in the
// order of the factories.
func Run(cfg Config, algorithms []AlgorithmFactory) ([]*Result, error) {
	if cfg.Users <= 0 || cfg.Runs <= 0 {
		return nil, fmt.Errorf("sim: users and runs must be positive")
	}
	if cfg.SlotsPerSecond <= 0 {
		cfg.SlotsPerSecond = 60
	}
	slots := int(cfg.Seconds * cfg.SlotsPerSecond)
	if slots <= 0 {
		return nil, fmt.Errorf("sim: no slots (seconds=%v)", cfg.Seconds)
	}
	if len(algorithms) == 0 {
		return nil, fmt.Errorf("sim: no algorithms")
	}

	results := make([]*Result, len(algorithms))
	for i, alg := range algorithms {
		results[i] = &Result{Name: alg.Name}
	}
	// Each run lands in its own slot and the slots are concatenated in run
	// order, so the per-sample output is independent of which goroutine
	// finished first.
	byRun := make([][]*Result, cfg.Runs)

	// Workers: one run at a time per goroutine.
	workers := runtime.GOMAXPROCS(0)
	if workers > cfg.Runs {
		workers = cfg.Runs
	}
	runCh := make(chan int)
	errCh := make(chan error, cfg.Runs)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for run := range runCh {
				runResults, err := simulateOneRun(cfg, slots, run, algorithms)
				if err != nil {
					errCh <- err
					continue
				}
				byRun[run] = runResults
			}
		}()
	}
	for run := 0; run < cfg.Runs; run++ {
		runCh <- run
	}
	close(runCh)
	wg.Wait()
	select {
	case err := <-errCh:
		return nil, err
	default:
	}
	for _, runResults := range byRun {
		for i, rr := range runResults {
			results[i].QoE = append(results[i].QoE, rr.QoE...)
			results[i].Quality = append(results[i].Quality, rr.Quality...)
			results[i].Delay = append(results[i].Delay, rr.Delay...)
			results[i].Variance = append(results[i].Variance, rr.Variance...)
			results[i].Fairness = append(results[i].Fairness, rr.Fairness...)
		}
	}
	return results, nil
}

// simulateOneRun prepares one draw of motion + network traces and replays
// every algorithm over the identical inputs.
func simulateOneRun(cfg Config, slots, run int, algorithms []AlgorithmFactory) ([]*Result, error) {
	seed := cfg.Seed + int64(run)*7919
	rng := rand.New(rand.NewSource(seed))

	// Network traces: the paper's half-broadband/half-LTE mix, or an
	// explicit per-user profile, fresh per run.
	caps := make([][]float64, cfg.Users)
	if len(cfg.NetKinds) > 0 {
		for u := range caps {
			tr := nettrace.Generate(cfg.NetKinds[u%len(cfg.NetKinds)], cfg.NetConfig, rng)
			caps[u] = tr.Slotted(slots, cfg.SlotsPerSecond)
		}
	} else {
		netTraces := nettrace.GenerateMix(cfg.Users, cfg.NetConfig, rng)
		for u := range caps {
			caps[u] = netTraces[u].Slotted(slots, cfg.SlotsPerSecond)
		}
	}

	// Motion traces and the algorithm-independent pipeline: prediction,
	// tile selection, rate ladders, coverage.
	sizeModel := tiles.NewSizeModel(uint64(cfg.Seed))
	inputs := make([][]slotInput, cfg.Users) // [user][slot]
	scenes := motion.Scenes()
	for u := 0; u < cfg.Users; u++ {
		mt := motion.Generate(scenes[u%2], u, slots, cfg.SlotsPerSecond, seed)
		pred := motion.NewPredictor(cfg.PredictorWindow)
		inputs[u] = make([]slotInput, slots)
		for s := 0; s < slots; s++ {
			predicted := pred.Predict()
			if s <= cfg.PredictorWindow {
				// Cold start: assume perfect knowledge until the regression
				// window has data (the real system warms up the same way).
				predicted = mt[s]
			}
			cell := tiles.CellFor(predicted.Pos)
			sel := tiles.ForView(predicted, cfg.Coverage.FoV, cfg.Coverage.MarginDeg)
			inputs[u][s] = slotInput{
				rates:   sizeModel.RateTable(cell, sel),
				covered: cfg.Coverage.Covered(predicted, mt[s]),
				cap_:    caps[u][s],
			}
			pred.Observe(mt[s])
		}
	}

	budget := cfg.ServerMbpsPerUser * float64(cfg.Users)
	out := make([]*Result, len(algorithms))
	records := make([][]obs.SlotRecord, len(algorithms))
	for i, factory := range algorithms {
		out[i], records[i] = replayAlgorithm(cfg, slots, budget, inputs, factory, seed, run)
	}
	emitRecords(cfg, algorithms, records)
	return out, nil
}

// emitRecords joins per-algorithm slot records against the offline optimum
// (when it ran) to fill the regret field, then hands everything to the
// recorder.
func emitRecords(cfg Config, algorithms []AlgorithmFactory, records [][]obs.SlotRecord) {
	if !cfg.Recorder.Enabled() {
		return
	}
	optIdx := -1
	for i, f := range algorithms {
		if f.Name == "optimal" {
			optIdx = i
		}
	}
	for i := range records {
		for j := range records[i] {
			rec := &records[i][j]
			if optIdx >= 0 {
				opt := &records[optIdx][j]
				rec.OptimalValue = opt.Value
				rec.HasRegret = true
				if r := opt.Value - rec.Value; r > 0 {
					rec.Regret = r
				}
				// Per-user shortfall versus the optimum's allocation of the
				// identical inputs — the rows regret attribution runs on.
				if len(opt.UserValues) == len(rec.UserValues) {
					rec.UserRegret = make([]float64, len(rec.UserValues))
					for u := range rec.UserValues {
						rec.UserRegret[u] = opt.UserValues[u] - rec.UserValues[u]
					}
				}
			}
			cfg.Recorder.Record(rec)
		}
	}
}

// replayAlgorithm runs one allocator over the precomputed inputs and
// collects per-user metrics. With a recorder attached it also returns one
// flight-recorder record per slot (regret is filled in later by
// emitRecords, once the optimum's values are known).
func replayAlgorithm(cfg Config, slots int, budget float64, inputs [][]slotInput, factory AlgorithmFactory, seed int64, run int) (*Result, []obs.SlotRecord) {
	alloc := factory.New()
	recording := cfg.Recorder.Enabled()
	// Spans: the campaign's runs beyond the first are statistical repeats,
	// so only run 0 is traced; the epoch salt keeps each algorithm's replay
	// of the identical inputs in its own trace space.
	spanning := cfg.Tracer.Enabled() && run == 0
	var epoch uint64
	if spanning {
		epoch = algoEpoch(cfg.TraceEpoch, factory.Name)
	}
	tracer, canTrace := alloc.(core.TracingAllocator)
	var records []obs.SlotRecord
	if recording {
		records = make([]obs.SlotRecord, 0, slots)
	}
	tracker := core.NewTracker(cfg.Params, cfg.Users, 1)
	acc := make([]*metrics.UserQoE, cfg.Users)
	qoeParams := metrics.QoEParams{Alpha: cfg.Params.Alpha, Beta: cfg.Params.Beta}
	for u := range acc {
		acc[u] = metrics.NewUserQoE(qoeParams)
	}

	// Imperfect estimation mode: algorithms consume an EMA over delayed,
	// noisy samples of B_n(t); the environment keeps using the truth. The
	// noise stream is seeded identically across algorithms so the
	// comparison stays paired.
	var estimators []*estimate.EMA
	var estRng *rand.Rand
	if cfg.EstimateAlpha > 0 {
		estimators = make([]*estimate.EMA, cfg.Users)
		for u := range estimators {
			estimators[u] = estimate.NewEMA(cfg.EstimateAlpha)
		}
		estRng = rand.New(rand.NewSource(seed ^ 0x5EED))
	}

	slotMs := 1000 / cfg.SlotsPerSecond
	users := make([]core.UserInput, cfg.Users)
	for s := 0; s < slots; s++ {
		var capErr []float64
		if recording && estimators != nil {
			capErr = make([]float64, cfg.Users) // fresh: the record retains it
		}
		for u := 0; u < cfg.Users; u++ {
			in := inputs[u][s]
			seenCap := in.cap_
			if estimators != nil {
				if s > 0 {
					sample := inputs[u][s-1].cap_ * (1 + estRng.NormFloat64()*cfg.EstimateNoise)
					if sample < 0.1 {
						sample = 0.1
					}
					estimators[u].Update(sample)
				}
				if estimators[u].Primed() {
					seenCap = estimators[u].Value()
				}
			}
			if capErr != nil && in.cap_ > 0 {
				capErr[u] = (seenCap - in.cap_) / in.cap_
			}
			users[u] = tracker.UserInput(u, in.rates,
				netem.DelayTableMs(in.rates, seenCap, slotMs), seenCap)
		}
		problem := &core.SlotProblem{T: s + 1, Budget: budget, Users: users}
		var allocation core.Allocation
		var slotTrace *core.SlotTrace
		var solveStart time.Time
		if spanning {
			solveStart = time.Now()
		}
		if recording && canTrace {
			slotTrace = &core.SlotTrace{TopK: cfg.CounterfactualK}
			allocation = tracer.AllocateTraced(cfg.Params, problem, slotTrace)
		} else {
			allocation = alloc.Allocate(cfg.Params, problem)
		}
		var slotNs, solveNs int64
		if spanning {
			solveNs = time.Since(solveStart).Nanoseconds()
			slotNs = int64(float64(s) * slotMs * 1e6)
		}
		if recording {
			records = append(records, slotRecord(cfg, factory.Name, run, s, budget, problem, allocation, slotTrace, capErr))
		}
		for u := 0; u < cfg.Users; u++ {
			in := inputs[u][s]
			q := allocation.Levels[u]
			rate := in.rates[q-1]
			delay := netem.DelayMs(rate, in.cap_, slotMs)
			covered := in.covered
			if estimators != nil && delay > 2*slotMs {
				// Imperfect-estimation mode: content that takes longer
				// than the pipeline budget misses its display deadline —
				// the frame is dropped (as on the real client) rather than
				// charged an unbounded queueing delay.
				covered = false
				delay = 2 * slotMs
			}
			tracker.Record(u, q, covered, delay)
			acc[u].Observe(q, covered, delay)
			if spanning {
				emitSimSpans(cfg.Tracer, epoch, factory.Name, uint32(u), uint32(s),
					slotNs, solveNs, q, len(users), rate*slotMs*125, delay, delay <= 2*slotMs)
			}
		}
	}

	res := &Result{Name: factory.Name}
	for u := 0; u < cfg.Users; u++ {
		res.QoE = append(res.QoE, acc[u].QoE())
		res.Quality = append(res.Quality, acc[u].AvgQuality())
		res.Delay = append(res.Delay, acc[u].AvgDelay())
		res.Variance = append(res.Variance, acc[u].Variance())
	}
	res.Fairness = []float64{metrics.JainIndex(res.QoE)}
	return res, records
}

// algoEpoch mixes an algorithm name into the trace epoch (FNV-1a style) so
// per-algorithm replays of the same (user, slot) grid derive distinct
// deterministic trace IDs.
func algoEpoch(base uint64, name string) uint64 {
	h := base ^ 14695981039346656037
	for i := 0; i < len(name); i++ {
		h = (h ^ uint64(name[i])) * 1099511628211
	}
	return h
}

// emitSimSpans writes one slot's virtual-time spans for one user: the solve
// (its duration is the only wall-clock measurement inside a virtual slot),
// the virtual transmit/receive window, and the display outcome.
func emitSimSpans(tr *trace.Tracer, epoch uint64, algo string, user, slot uint32,
	slotNs, solveNs int64, level, tilesN int, bytes, delayMs float64, displayed bool) {
	tid := trace.TileTraceID(epoch, user, slot)
	delayNs := int64(delayMs * 1e6)

	d := tr.StartAt(tid, trace.StageDecide, trace.SideServer, user, slot, slotNs)
	d.SetAlgo(algo)
	d.SetLevel(level)
	d.SetTiles(tilesN)
	d.EndAt(slotNs + solveNs)

	tx := tr.StartAt(tid, trace.StageSend, trace.SideServer, user, slot, slotNs)
	tx.SetLevel(level)
	tx.SetBytes(int(bytes))
	tx.EndAt(slotNs + delayNs)

	rx := tr.StartAt(tid, trace.StageRecv, trace.SideClient, user, slot, slotNs)
	rx.SetBytes(int(bytes))
	rx.EndAt(slotNs + delayNs)

	disp := tr.StartAt(tid, trace.StageDisplay, trace.SideClient, user, slot, slotNs+delayNs)
	disp.SetLevel(level)
	if displayed {
		disp.SetOutcome(trace.OutcomeDisplayed)
	} else {
		disp.SetOutcome(trace.OutcomeMissed)
	}
	disp.EndAt(slotNs + delayNs)
}

// slotRecord builds one flight-recorder entry for a decided slot. capErr
// (when non-nil) is the signed relative channel-estimate error per user.
func slotRecord(cfg Config, name string, run, s int, budget float64, problem *core.SlotProblem, allocation core.Allocation, tr *core.SlotTrace, capErr []float64) obs.SlotRecord {
	rec := obs.SlotRecord{
		Algorithm:  name,
		Run:        run,
		Slot:       s,
		Levels:     allocation.Levels,
		Value:      allocation.Value,
		RateMbps:   allocation.Rate,
		BudgetMbps: budget,
		CapErr:     capErr,
	}
	if budget > 0 {
		rec.Utilization = allocation.Rate / budget
	}
	if tr != nil {
		rec.Branch = tr.Branch
		rec.Upgrades = tr.Upgrades
		rec.Rejections = tr.Rejections
		rec.Alternatives = tr.Alternatives
	}
	rec.UserValues = make([]float64, len(allocation.Levels))
	for u, q := range allocation.Levels {
		terms := core.ObjectiveTerms(cfg.Params, problem.T, problem.Users[u], q)
		rec.QualityTerm += terms.Quality
		rec.DelayTerm += terms.Delay
		rec.VarianceTerm += terms.Variance
		rec.UserValues[u] = terms.Quality - terms.Delay - terms.Variance
	}
	return rec
}
