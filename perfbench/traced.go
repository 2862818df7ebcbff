package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/load"
	"repro/internal/obs"
	"repro/internal/trace"
)

// timedRun measures one engine call's wall time, process CPU, allocation
// and GC cycles.
type timedRun struct {
	wall, cpu time.Duration
	alloc     uint64
	gc        uint32
}

func measureCall(f func() error) (timedRun, error) {
	runtime.GC()
	m0, c0, t0 := readMem(), cpuTime(), time.Now()
	err := f()
	t, c, m1 := time.Since(t0), cpuTime()-c0, readMem()
	return timedRun{wall: t, cpu: c, alloc: m1.allocBytes - m0.allocBytes, gc: m1.gcCycles - m0.gcCycles}, err
}

// traced is the --trace 1 run. It splits the seconds evenly between its
// legs, each driven by the run's seeded inputs:
//
//   - the replay leg (every workload): Simulate at Workers=1 and at
//     GOMAXPROCS, and the traced replay of the same inputs;
//   - the fleet leg (fleet-failover): SimulateFleet untraced and with the
//     allocator probe and a placement-recorder ring;
//   - the live leg (every workload): two steady sessions drawn from the
//     run's seed on a real server over loopback, untraced and with the
//     span tracer.
//
// Later legs overwrite the whole-process, wall-clock and solver figures of
// earlier ones, so those describe the workload's own engine: SimulateFleet
// on the fleet workload, Simulate elsewhere.
func (r *runner) traced(seconds float64) (map[string]float64, error) {
	legs := 2
	if r.w.engine == engineFleet {
		legs = 3
	}
	share := time.Duration(seconds / float64(legs) * float64(time.Second))
	m := map[string]float64{}
	if err := r.replayLeg(time.Now().Add(share), m); err != nil {
		return nil, err
	}
	if r.w.engine == engineFleet {
		if err := r.fleetLeg(time.Now().Add(share), m); err != nil {
			return nil, err
		}
	}
	if err := r.liveLeg(share.Seconds(), m); err != nil {
		return nil, err
	}
	return m, nil
}

// replayLeg runs rounds, cycling through the sub-workloads until deadline
// (at least one), of Simulate at Workers=1 (the untraced control),
// Simulate at Workers=GOMAXPROCS with the allocator probe (the load.*
// wall-clock figures), and the traced replay. All three reports must share
// one fingerprint; otherwise the layer numbers describe some other
// computation and the run fails.
func (r *runner) replayLeg(deadline time.Time, m map[string]float64) error {
	var (
		lt                            layerTimes
		wall                          wallLayer
		st                            *stamps
		speedups, overheads, allocPer []float64
		gcs                           []float64
	)
	for round := 0; round == 0 || time.Now().Before(deadline); round++ {
		wl, err := r.generate(round%r.w.subWorkloads, 0)
		if err != nil {
			return err
		}
		var serial, parallel, traced *load.RunReport
		serialRun, err := r.counted(func() (err error) {
			serial, err = load.Simulate(wl, r.w.simConfig(r.profile, 1, nil))
			return err
		})
		if err != nil {
			return err
		}
		pst := newStamps(time.Time{}, wl.Cfg.HorizonSlots)
		var end time.Time
		parallelRun, err := r.counted(func() (err error) {
			pst.base = time.Now()
			parallel, err = load.Simulate(wl, r.w.simConfig(r.profile, 0, pst))
			end = time.Now()
			return err
		})
		if err != nil {
			return err
		}
		st = newStamps(time.Now(), wl.Cfg.HorizonSlots)
		var rt *layerTimes
		tracedRun, err := r.counted(func() error {
			traced, rt = replay(wl, r.w.simConfig(r.profile, 1, nil), st)
			return nil
		})
		if err != nil {
			return err
		}
		fps := make([]string, 3)
		for i, rep := range []*load.RunReport{serial, parallel, traced} {
			if err := checkReport(rep); err != nil {
				return err
			}
			if fps[i], err = fingerprint(rep); err != nil {
				return err
			}
		}
		if fps[1] != fps[0] {
			return fmt.Errorf("Simulate at Workers=%d fingerprint %s != Workers=1 %s", runtime.GOMAXPROCS(0), fps[1], fps[0])
		}
		if fps[2] != fps[0] {
			return fmt.Errorf("traced replay fingerprint %s != Simulate Workers=1 %s: layer numbers rejected", fps[2], fps[0])
		}
		r.log("replay round %d: fingerprint %.16s matches Simulate at Workers=1 and %d", round, fps[0], runtime.GOMAXPROCS(0))
		ss := float64(sessionSlots(serial))
		speedups = append(speedups, serialRun.wall.Seconds()/parallelRun.wall.Seconds())
		overheads = append(overheads, 100*(tracedRun.cpu.Seconds()-serialRun.cpu.Seconds())/serialRun.cpu.Seconds())
		allocPer = append(allocPer, float64(parallelRun.alloc)/ss)
		gcs = append(gcs, float64(parallelRun.gc))
		wall.add(pst, end, int(ss))
		lt.add(rt)
	}
	wall.fill(m)
	m["load.workers_speedup"] = median(speedups)
	m["trace.overhead_pct"] = median(overheads)
	m["process.alloc_bytes_per_session_slot"] = median(allocPer)
	m["process.gc_cycles"] = median(gcs)
	lt.fill(m)
	st.solveLayer(m)
	return nil
}

// counted is measureCall for an engine call that counts as an operation.
func (r *runner) counted(f func() error) (timedRun, error) {
	var run timedRun
	err := r.call(func() error {
		var err error
		run, err = measureCall(f)
		return err
	})
	return run, err
}

// fleetLeg runs rounds of an untraced SimulateFleet and one with the
// allocator probe and a placement-recorder ring attached, whose
// fingerprints must agree.
func (r *runner) fleetLeg(deadline time.Time, m map[string]float64) error {
	var (
		st                  *stamps
		wall                wallLayer
		last                *load.FleetReport
		overheads, allocPer []float64
		gcs                 []float64
	)
	for round := 0; round == 0 || time.Now().Before(deadline); round++ {
		wl, err := r.generate(round%r.w.subWorkloads, 0)
		if err != nil {
			return err
		}
		var plain, traced *load.FleetReport
		plainRun, err := r.counted(func() (err error) {
			plain, err = load.SimulateFleet(wl, r.w.fleetConfig(r.profile, nil))
			return err
		})
		if err != nil {
			return err
		}
		st = newStamps(time.Time{}, wl.Cfg.HorizonSlots*r.w.shards)
		var end time.Time
		tracedRun, err := r.counted(func() (err error) {
			cfg := r.w.fleetConfig(r.profile, st)
			cfg.Recorder = obs.NewPlacementRecorder(obs.PlacementRecorderOptions{RingSize: 1 << 12})
			st.base = time.Now()
			traced, err = load.SimulateFleet(wl, cfg)
			end = time.Now()
			return err
		})
		if err != nil {
			return err
		}
		for _, rep := range []*load.FleetReport{plain, traced} {
			if err := checkFleet(rep); err != nil {
				return err
			}
		}
		fa, err := fingerprint(plain)
		if err != nil {
			return err
		}
		fb, err := fingerprint(traced)
		if err != nil {
			return err
		}
		if fa != fb {
			return fmt.Errorf("traced fleet fingerprint %s != untraced %s", fb, fa)
		}
		ss := float64(sessionSlots(&plain.RunReport))
		overheads = append(overheads, 100*(tracedRun.cpu.Seconds()-plainRun.cpu.Seconds())/plainRun.cpu.Seconds())
		allocPer = append(allocPer, float64(plainRun.alloc)/ss)
		gcs = append(gcs, float64(plainRun.gc))
		wall.add(st, end, int(ss))
		last = traced
	}
	wall.fill(m)
	ss := float64(sessionSlots(&last.RunReport))
	m["trace.overhead_pct"] = median(overheads)
	m["process.alloc_bytes_per_session_slot"] = median(allocPer)
	m["process.gc_cycles"] = median(gcs)
	m["fleet.migrations"] = float64(last.Migrations)
	m["fleet.outage_slot_frac"] = float64(last.OutageSlots) / ss
	m["fleet.rebalances"] = float64(last.Rebalances)
	m["coord.commits_per_slot"] = float64(last.Coord.Commits) / float64(last.HorizonSlots)
	m["coord.leaderless_slots"] = float64(last.Coord.LeaderlessSlots)
	if n := last.Coord.Commits + last.Coord.Rejected; n > 0 {
		m["coord.rejected_frac"] = float64(last.Coord.Rejected) / float64(n)
	}
	st.solveLayer(m)
	return nil
}

// liveSessions is the live leg's client count: two emulated clients,
// never more than the machine has CPUs.
func liveSessions() int { return min(2, runtime.NumCPU()) }

// liveConfig is the live leg's server configuration, with the Section IV
// budget of 36 Mbps per session.
func liveConfig(st *stamps) load.LiveConfig {
	cfg := load.LiveConfig{AllocName: "proposed", BudgetMbps: 36 * float64(liveSessions())}
	if st != nil {
		cfg.NewAllocator = st.newAllocator()
	}
	return cfg
}

// liveLeg is the live leg of a traced run: liveSessions() steady
// sessions drawn from sub-workload 0's seed (on sim-steady, that
// sub-workload's first sessions), trace-shaped, on a real server over
// loopback at 60 Hz. It makes one untraced RunLive (the control for the
// tracing overhead), then one with the span tracer on a ring exporter, a
// shared metrics registry and the allocator probe, and writes the server,
// transport and client metrics into m. The leg's own solver, CPU and
// tracing-overhead figures are only logged; m keeps the workload
// engine's.
func (r *runner) liveLeg(seconds float64, m map[string]float64) error {
	horizon := max(60, int(seconds*60/2))
	gen := func() (*load.Workload, error) {
		return load.Generate(load.Config{Shape: load.Steady, Seed: r.subSeed(0), HorizonSlots: horizon, Sessions: liveSessions(), RampSlots: 1})
	}
	var plain, traced *load.RunReport
	plainRun, err := r.counted(func() error {
		wl, err := gen()
		if err != nil {
			return err
		}
		plain, err = load.RunLive(wl, liveConfig(nil))
		return err
	})
	if err != nil {
		return err
	}
	const ring = 1 << 17
	exp := trace.NewExporter(trace.ExporterOptions{RingSize: ring})
	reg := obs.NewRegistry()
	st := newStamps(time.Now(), horizon)
	tracedRun, err := r.counted(func() error {
		wl, err := gen()
		if err != nil {
			return err
		}
		cfg := liveConfig(st)
		cfg.Tracer = trace.New(trace.Options{Exporter: exp})
		cfg.Metrics = reg
		traced, err = load.RunLive(wl, cfg)
		return err
	})
	if err != nil {
		return err
	}
	for _, rep := range []*load.RunReport{plain, traced} {
		if err := checkReport(rep); err != nil {
			return err
		}
	}
	plainSS, tracedSS := float64(sessionSlots(plain)), float64(sessionSlots(traced))
	if plainSS == 0 || tracedSS == 0 {
		return fmt.Errorf("live leg decided no session-slots")
	}
	if n := exp.Exported(); n > ring {
		return fmt.Errorf("span ring overflowed: %d spans exported", n)
	}
	spans := exp.Recent(ring)
	an := trace.Analyze(spans, 0)
	r.log("live leg: %d sessions, %d spans, %d traces (%d stitched), miss share %.4f\n%s",
		liveSessions(), an.Spans, an.Traces, an.Stitched, traced.AggregateMissRate(), an.Format())

	plainCPU := plainRun.cpu.Seconds() / plainSS
	tracedCPU := tracedRun.cpu.Seconds() / tracedSS
	r.log("live leg: cpu µs/session-slot untraced %.1f traced %.1f (tracing overhead %+.1f%%); %d solves, p50 %.1f µs, p99 %.1f µs",
		plainCPU*1e6, tracedCPU*1e6, 100*(tracedCPU-plainCPU)/plainCPU,
		len(st.solveNs), quantile(st.solveNs, 0.5)/1e3, quantile(st.solveNs, 0.99)/1e3)
	stage := func(name string) trace.StageStat {
		for _, s := range an.Stages {
			if s.Stage == name {
				return s
			}
		}
		return trace.StageStat{}
	}
	m["server.decide_ms_p99"] = stage(trace.StageDecide).P99Ms
	m["server.admit_us"] = stage(trace.StageAdmit).P50Ms * 1e3
	m["server.fetch_us"] = stage(trace.StageFetch).P50Ms * 1e3
	m["transport.send_us_p50"] = stage(trace.StageSend).P50Ms * 1e3
	m["transport.send_us_p99"] = stage(trace.StageSend).P99Ms * 1e3
	m["client.recv_ms_p99"] = stage(trace.StageRecv).P99Ms

	var decodes, overflows int
	for _, s := range spans {
		if s.Stage == trace.StageDecode {
			decodes++
			if s.Err == "decoder-overflow" {
				overflows++
			}
		}
	}
	frac := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	m["client.decode_overflow_frac"] = frac(float64(overflows), float64(decodes))

	counter := func(name string) float64 { return float64(reg.Counter(name).Value()) }
	sent, skipped := counter("collabvr_server_tiles_sent_total"), counter("collabvr_server_tiles_skipped_total")
	m["server.tiles_skipped_frac"] = frac(skipped, sent+skipped)
	hits, misses := counter("collabvr_server_tile_cache_hits_total"), counter("collabvr_server_tile_cache_misses_total")
	m["tiles.store_hit_ratio"] = frac(hits, hits+misses)
	packets := counter("collabvr_server_tx_packets_total")
	m["transport.tx_packets_per_s"] = frac(packets, traced.WallSec)
	m["transport.tx_dropped_frac"] = frac(counter("collabvr_server_tx_dropped_total"), packets)
	m["transport.retransmit_tiles"] = counter("collabvr_server_retransmit_tiles_total")
	received, incomplete := counter("collabvr_client_tiles_received_total"), counter("collabvr_client_rx_incomplete_tiles_dropped_total")
	m["client.rx_incomplete_frac"] = frac(incomplete, received+incomplete)
	delay := reg.Histogram("collabvr_client_slot_delay_ms", obs.DefaultLatencyBuckets())
	m["client.delivery_ms_p50"] = delay.Quantile(0.50)
	m["client.delivery_ms_p99"] = delay.Quantile(0.99)
	return nil
}
