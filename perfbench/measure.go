package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/chaos"
	"repro/internal/load"
)

// ops counts engine calls: attempted, and failed (returned an error or
// broke a correctness check).
type ops struct {
	attempted, failed int
}

// runner executes one workload for one seed within a wall-clock budget.
type runner struct {
	w        *workload
	seed     int64
	deadline time.Time
	profile  *chaos.Profile
	ops      ops
	log      func(format string, args ...any)
}

// call runs one engine invocation, counting it.
func (r *runner) call(f func() error) error {
	r.ops.attempted++
	if err := f(); err != nil {
		r.ops.failed++
		return err
	}
	return nil
}

// subSeed derives the seed of sub-workload k of the run's seed. Distinct
// run seeds never share a sub-workload.
func (r *runner) subSeed(k int) int64 { return r.seed*maxSubWorkloads + int64(k) }

// generate builds sub-workload k's inputs; horizon > 0 overrides the
// workload's horizon.
func (r *runner) generate(k, horizon int) (*load.Workload, error) {
	cfg := r.w.gen(r.subSeed(k))
	if horizon > 0 {
		cfg.HorizonSlots = horizon
	}
	return load.Generate(cfg)
}

// engineFn runs one engine over a workload with the allocator probe's
// stamps (nil: the unwrapped production allocator). It returns the
// single-server view of the report and the full report, which is what is
// checked and fingerprinted.
type engineFn func(*load.Workload, *stamps) (*load.RunReport, any, error)

func (r *runner) simEngine(workers int) engineFn {
	return func(wl *load.Workload, st *stamps) (*load.RunReport, any, error) {
		rep, err := load.Simulate(wl, r.w.simConfig(r.profile, workers, st))
		return rep, rep, err
	}
}

func (r *runner) fleetEngine(wl *load.Workload, st *stamps) (*load.RunReport, any, error) {
	rep, err := load.SimulateFleet(wl, r.w.fleetConfig(r.profile, st))
	if err != nil {
		return nil, nil, err
	}
	return &rep.RunReport, rep, nil
}

func checkAny(v any) error {
	switch rep := v.(type) {
	case *load.RunReport:
		return checkReport(rep)
	case *load.FleetReport:
		return checkFleet(rep)
	}
	return fmt.Errorf("unknown report type %T", v)
}

// repeatSample is one measured engine call's end-to-end figures.
type repeatSample struct {
	setup  time.Duration
	rate   float64 // session-slots per second after the first solve
	cpuPer float64 // µs of process CPU per session-slot, whole call
	gapsMs []float64
	cpuMs  []float64
	fp     string
	report *load.RunReport
}

// timedCall generates sub-workload k and runs engine over it with the
// allocator probe attached. The clock starts before generation, so
// setup covers workload generation and slot-0 session construction.
func (r *runner) timedCall(k int, engine engineFn) (*repeatSample, error) {
	runtime.GC()
	var s repeatSample
	err := r.call(func() error {
		base := time.Now()
		cpu0 := cpuTime()
		wl, err := r.generate(k, 0)
		if err != nil {
			return err
		}
		st := newStamps(base, wl.Cfg.HorizonSlots*max(1, r.w.shards))
		rep, full, err := engine(wl, st)
		if err != nil {
			return err
		}
		end := time.Now()
		cpu := cpuTime() - cpu0
		if err := checkAny(full); err != nil {
			return err
		}
		if s.fp, err = fingerprint(full); err != nil {
			return err
		}
		slots := sessionSlots(rep)
		if slots == 0 || st.first.IsZero() {
			return fmt.Errorf("engine decided no session-slots")
		}
		s.setup = st.setup()
		s.rate = float64(slots) / end.Sub(st.first).Seconds()
		s.cpuPer = float64(cpu.Nanoseconds()) / 1e3 / float64(slots)
		s.gapsMs = st.slotGapsMs(nil)
		s.cpuMs = st.slotCPUMs(nil)
		s.report = rep
		return nil
	})
	return &s, err
}

// measureVirtual is the untraced run of a workload. It first runs
// sub-workload 0 with the unwrapped production allocator, then
// probe-wrapped calls cycling through the sub-workloads until the deadline
// (at least one pass). The first wrapped call must reproduce the unwrapped
// fingerprint (the probe changes no decision) and every later visit of a
// sub-workload must reproduce its first (one seed, one report).
func (r *runner) measureVirtual() (map[string]float64, error) {
	engine := r.simEngine(0)
	if r.w.engine == engineFleet {
		engine = r.fleetEngine
	}
	var refFP string
	err := r.call(func() error {
		runtime.GC()
		wl, err := r.generate(0, 0)
		if err != nil {
			return err
		}
		_, full, err := engine(wl, nil)
		if err != nil {
			return err
		}
		if err := checkAny(full); err != nil {
			return err
		}
		refFP, err = fingerprint(full)
		return err
	})
	if err != nil {
		return nil, err
	}
	k := r.w.subWorkloads
	fps := make([]string, k)
	var totals outcomeTotals
	var samples []*repeatSample
	for i := 0; i < k || time.Now().Before(r.deadline); i++ {
		sub := i % k
		s, err := r.timedCall(sub, engine)
		if err != nil {
			return nil, err
		}
		switch {
		case sub == 0 && s.fp != refFP:
			r.ops.failed++
			return nil, fmt.Errorf("probe-wrapped fingerprint %s != unwrapped %s: the probe changed a decision", s.fp, refFP)
		case fps[sub] == "":
			fps[sub] = s.fp
			totals.add(s.report)
		case s.fp != fps[sub]:
			r.ops.failed++
			return nil, fmt.Errorf("sub-workload %d repeat fingerprint %s != first %s: the engine is not deterministic", sub, s.fp, fps[sub])
		}
		s.report = nil
		r.log("call %d sub %d: setup %.6f s, %.0f session-slots/s, %.4f cpu µs/session-slot, slot wall p50 %.4f p99 %.4f ms, slot cpu p50 %.4f p99 %.4f ms, fingerprint %.16s",
			i, sub, s.setup.Seconds(), s.rate, s.cpuPer, quantile(s.gapsMs, 0.5), quantile(s.gapsMs, 0.99),
			quantile(s.cpuMs, 0.5), quantile(s.cpuMs, 0.99), s.fp)
		samples = append(samples, s)
	}
	return r.summarize(samples, &totals), nil
}

// summarize turns measured calls into the end-to-end metrics: the median
// over the calls of each call's figure. It logs the wall-clock figures,
// which the end-to-end set leaves out.
func (r *runner) summarize(samples []*repeatSample, totals *outcomeTotals) map[string]float64 {
	var setups, cpus, cpu50s, rates, wall50s, wall99s []float64
	for _, s := range samples {
		setups = append(setups, s.setup.Seconds())
		cpus = append(cpus, s.cpuPer)
		cpu50s = append(cpu50s, quantile(s.cpuMs, 0.50))
		rates = append(rates, s.rate)
		wall50s = append(wall50s, quantile(s.gapsMs, 0.50))
		wall99s = append(wall99s, quantile(s.gapsMs, 0.99))
	}
	r.log("wall clock over %d calls (medians): %.0f session-slots/s, slot p50 %.4f ms, slot p99 %.4f ms",
		len(samples), median(rates), median(wall50s), median(wall99s))
	m := map[string]float64{
		"setup_s":                 median(setups),
		"slot_cpu_ms_p50":         median(cpu50s),
		"cpu_us_per_session_slot": median(cpus),
	}
	totals.fill(m)
	return m
}
