// Command collabvr-fleet runs session workloads against a sharded edge
// fleet: N server shards behind a scored router that places arriving
// sessions, periodically rebalances the global bandwidth budget B(t) from
// observed per-shard demand, and live-migrates sessions off killed or
// draining shards instead of dropping them.
//
// The default engine is the deterministic virtual-time fleet simulator
// (same workload + seed, bit-identical report); -mode live drives real
// in-process server shards over loopback sockets with one emulated client
// per session, migrating through the reconnect/Welcome-resume path.
//
// Usage:
//
//	collabvr-fleet -shards 3 -sessions 9 -slots 1200
//	collabvr-fleet -shards 3 -scorer slo-burn -chaos examples/chaos/fleet.json
//	collabvr-fleet -chaos examples/chaos/fleet.json -verify-recovery
//	collabvr-fleet -coordinators 3 -chaos examples/chaos/coordkill.json -verify-recovery
//	collabvr-fleet -mode live -shards 2 -sessions 6 -slotms 5
//	collabvr-fleet -find-capacity -shards 3 -budget 300 -miss-target 0.01
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"reflect"
	"sync"
	"time"

	"repro/internal/baseline"
	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/fleet/coord"
	"repro/internal/load"
	"repro/internal/obs"
	"repro/internal/obs/tsdb"
	"repro/internal/transport"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "collabvr-fleet:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("collabvr-fleet", flag.ContinueOnError)
	var (
		sessions = fs.Int("sessions", 9, "steady concurrent session count")
		slots    = fs.Int("slots", 1200, "workload horizon in slots")
		sps      = fs.Float64("sps", 60, "slots per second on the workload timeline")
		seed     = fs.Int64("seed", 42, "workload seed (same seed, same run, bit for bit in sim mode)")

		shards     = fs.Int("shards", 3, "server shard count")
		zones      = fs.Int("zones", 0, "locality zone count (0 = one zone per shard)")
		scorerName = fs.String("scorer", "least-loaded", "placement scorer: least-loaded, locality, slo-burn")
		rebSlots   = fs.Int("rebalance-slots", 0, "budget rebalance cadence in slots (0 = default)")
		migSlots   = fs.Int("migration-slots", 0, "sim: forced-miss blackout per migrated session (0 = default 2, negative = none)")

		coordinators = fs.Int("coordinators", 1, "coordinator replica count for the replicated owner map (2f+1 tolerates f crashes; 1 = zero-cost single replica)")
		leaseSlots   = fs.Int("lease-slots", 0, "coordinator leader-lease length in slots — the election timeout (0 = default 8)")

		mode   = fs.String("mode", "sim", "execution engine: sim (virtual time) or live (loopback sockets)")
		slotMs = fs.Float64("slotms", 0, "live-mode wall-clock slot duration in ms (0 = 1000/sps)")
		algo   = fs.String("algo", "dvgreedy", "allocator: dvgreedy, dvgreedy-scan, density, value, optimal, firefly, pavq")
		budget = fs.Float64("budget", 400, "GLOBAL fleet throughput budget B(t) in Mbps, split across shards")

		chaosPath  = fs.String("chaos", "", "chaos profile JSON (shard_kill/shard_drain drive the fleet layer)")
		chaosCheck = fs.Bool("chaos-check", false, "validate the -chaos profile, print its schedule, and exit")

		verifyRecovery = fs.Bool("verify-recovery", false, "sim: assert the chaos campaign degrades-not-drops, reproduces bit-for-bit, and recovers tail quality to within 10% of fault-free")

		findCap    = fs.Bool("find-capacity", false, "binary-search fleet and per-shard session capacity under -miss-target")
		missTarget = fs.Float64("miss-target", 0.01, "capacity-search deadline-miss rate target")
		capLo      = fs.Int("cap-lo", 1, "capacity-search floor (sessions)")
		capHi      = fs.Int("cap-hi", 256, "capacity-search ceiling (sessions)")

		httpAddr      = fs.String("http", "", "observability HTTP listen address serving /metrics and /debug/fleet (empty = disabled)")
		placementsOut = fs.String("placements-out", "", "write placement-decision records to this JSONL file")
		sloOn         = fs.Bool("slo", false, "track per-session QoE SLO burn rates (implied by -chaos)")
		evacOn        = fs.Bool("evac", false, "evacuate sessions off shards whose rolling SLO pressure pages (implies -slo; sim and live modes)")
		healthOut     = fs.String("health-out", "", "write the health time-series export to this JSONL file (enables health sampling)")
		healthEvery   = fs.Int("health-every", 1, "health sampling cadence in slots")
		verbose       = fs.Bool("v", false, "verbose logging")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if _, err := fleet.ScorerByName(*scorerName); err != nil {
		return err
	}
	if _, err := baseline.AllocatorByName(*algo); err != nil {
		return err
	}
	if *mode != "sim" && *mode != "live" {
		return fmt.Errorf("unknown mode %q (want sim or live)", *mode)
	}
	if *evacOn && *shards < 2 {
		return fmt.Errorf("-evac needs -shards > 1 (evacuated sessions need somewhere to go)")
	}

	var chaosProf *chaos.Profile
	if *chaosPath != "" {
		var err error
		chaosProf, err = chaos.LoadProfile(*chaosPath)
		if err != nil {
			return err
		}
		if m := chaosProf.MaxShard(); m >= *shards {
			return fmt.Errorf("chaos profile targets shard %d but -shards is %d", m, *shards)
		}
		if m := chaosProf.MaxReplica(); m >= *coordinators {
			return fmt.Errorf("chaos profile targets coordinator replica %d but -coordinators is %d", m, *coordinators)
		}
	}
	if *chaosCheck {
		if chaosProf == nil {
			return fmt.Errorf("-chaos-check needs -chaos <profile.json>")
		}
		fmt.Fprint(out, chaosSummary(chaosProf))
		return nil
	}
	if *verifyRecovery {
		if *mode != "sim" {
			return fmt.Errorf("-verify-recovery needs -mode sim (determinism is a virtual-time property)")
		}
		if !chaosProf.HasShardFaults() && !chaosProf.HasCoordFaults() {
			return fmt.Errorf("-verify-recovery needs -chaos with shard_kill/shard_drain or coord_kill/coord_partition faults")
		}
	}

	params := core.DefaultSystemParams()
	reg := obs.NewRegistry()
	var slo *obs.SLOMonitor
	// A chaos campaign implies SLO tracking and the breaker, as in
	// collabvr-loadgen: the resilience path is SLO state -> breaker cap.
	if *sloOn || chaosProf != nil || *evacOn {
		slo = obs.NewSLOMonitor(obs.DefaultSLOConfig(), reg)
	}
	var brk *obs.Breaker
	if chaosProf != nil {
		bcfg := obs.DefaultBreakerConfig()
		bcfg.Levels = params.Levels
		brk = obs.NewBreaker(bcfg, reg)
	}
	ropts := obs.PlacementRecorderOptions{RingSize: 512, Metrics: reg}
	if *placementsOut != "" {
		f, err := os.Create(*placementsOut)
		if err != nil {
			return fmt.Errorf("placement export: %w", err)
		}
		defer f.Close()
		ropts.Writer = f
	}
	rec := obs.NewPlacementRecorder(ropts)

	// Health plane: one store carries the coordinator's fleet series and the
	// sampler's registry/SLO series so /debug/health and the export are a
	// single document.
	var (
		healthStore   *tsdb.Store
		healthSampler *tsdb.Sampler
	)
	if *healthOut != "" || *evacOn {
		healthStore = tsdb.New(tsdb.Options{})
		healthSampler = tsdb.NewSampler(tsdb.SamplerOptions{
			Store:      healthStore,
			Registry:   reg,
			SLO:        slo,
			EverySlots: *healthEvery,
		})
	}

	// /debug/fleet and /debug/coord serve whatever the most recent run
	// produced: a report-derived snapshot once a run has finished.
	var (
		snapMu      sync.Mutex
		snap        func(n int) obs.FleetSnapshot
		coordOut    *load.CoordOutcome
		coordStatus func() coord.Status
	)
	setSnap := func(f func(n int) obs.FleetSnapshot, co *load.CoordOutcome) {
		snapMu.Lock()
		snap = f
		coordOut = co
		snapMu.Unlock()
	}
	if *httpAddr != "" {
		ln, err := net.Listen("tcp", *httpAddr)
		if err != nil {
			return fmt.Errorf("observability listen: %w", err)
		}
		defer ln.Close()
		mopts := obs.MuxOptions{SLO: slo, Fleet: func(n int) obs.FleetSnapshot {
			snapMu.Lock()
			f := snap
			snapMu.Unlock()
			if f == nil {
				// Mid-run: no report yet, but the shared recorder already
				// carries the placement tail and counters.
				return obs.FleetSnapshot{
					Scorer:           *scorerName,
					GlobalBudgetMbps: *budget,
					Placements:       reg.Counter("collabvr_fleet_placements_total").Value(),
					Migrations:       int(reg.Counter("collabvr_fleet_migrations_total").Value()),
					Recent:           rec.Recent(n),
				}
			}
			return f(n)
		}}
		if healthStore != nil {
			mopts.Health = tsdb.Handler(healthStore, nil)
		}
		// Live mode serves the cluster's full status document (leadership,
		// lease, per-replica log frontier) mid-run; sim mode serves the
		// finished run's coord outcome.
		mopts.Coord = http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			snapMu.Lock()
			st := coordStatus
			co := coordOut
			snapMu.Unlock()
			w.Header().Set("Content-Type", "application/json")
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			if st != nil {
				_ = enc.Encode(st())
				return
			}
			_ = enc.Encode(co)
		})
		go http.Serve(ln, obs.NewMuxOpts(reg, nil, mopts))
		fmt.Fprintf(out, "observability on http://%s/metrics (/debug/fleet)\n", ln.Addr())
	}
	logf := func(string, ...any) {}
	if *verbose {
		logf = func(format string, a ...any) { fmt.Fprintf(os.Stderr, format+"\n", a...) }
	}

	newAlloc := baseline.MustFactory(*algo)
	rebalance := fleet.RebalanceConfig{EverySlots: *rebSlots}
	// withChaos selects the fault schedule; withObs wires the shared
	// registry/SLO/breaker/recorder. Verification runs use withObs=false so
	// stateful observers carried across runs cannot perturb the bit-for-bit
	// comparison.
	simCfg := func(withChaos, withObs bool) load.FleetSimConfig {
		cfg := load.FleetSimConfig{
			Shards:               *shards,
			Zones:                *zones,
			Scorer:               *scorerName,
			Rebalance:            rebalance,
			MigrationOutageSlots: *migSlots,
			Coordinators:         *coordinators,
			Coord:                coord.Config{LeaseSlots: *leaseSlots},
		}
		cfg.Sim = load.SimConfig{
			Params:       params,
			NewAllocator: newAlloc,
			AllocName:    *algo,
			BudgetMbps:   *budget,
		}
		if withChaos {
			cfg.Sim.Chaos = chaosProf
		}
		if withObs {
			cfg.Recorder = rec
			cfg.Sim.Metrics = reg
			cfg.Sim.SLO = slo
			cfg.Sim.Breaker = brk
			cfg.Sim.Health = healthSampler
			cfg.Health = healthStore
			if *evacOn {
				cfg.Evac = fleet.EvacConfig{Enabled: true}
			}
		}
		return cfg
	}
	workload := func(n int) (*load.Workload, error) {
		return load.Generate(load.Config{
			Shape:          load.Steady,
			Seed:           *seed,
			HorizonSlots:   *slots,
			SlotsPerSecond: *sps,
			Sessions:       n,
		})
	}

	if *findCap {
		probe := func(n, nShards int, globalBudget float64) (float64, error) {
			w, err := workload(n)
			if err != nil {
				return 0, err
			}
			cfg := simCfg(false, false)
			cfg.Shards = nShards
			cfg.Sim.BudgetMbps = globalBudget
			rep, err := load.SimulateFleet(w, cfg)
			if err != nil {
				return 0, err
			}
			miss := rep.AggregateMissRate()
			fmt.Fprintf(out, "probe %5d sessions x %d shard(s) @ %.0f Mbps: deadline-miss %.4f\n",
				n, nShards, globalBudget, miss)
			return miss, nil
		}
		res, err := load.FindFleetCapacity(*capLo, *capHi, *missTarget, *shards, *budget, probe)
		if err != nil {
			return err
		}
		fmt.Fprint(out, res.Format())
		return nil
	}

	w, err := workload(*sessions)
	if err != nil {
		return err
	}

	// finish prints the evacuation tally and writes the health export;
	// shared by the sim and live paths.
	finish := func(rep *load.FleetReport) error {
		if *evacOn {
			fmt.Fprintf(out, "evac: %d session(s) moved in %d batch(es)\n",
				rep.Evacuations, rep.EvacBatches)
		}
		if *healthOut != "" {
			f, err := os.Create(*healthOut)
			if err != nil {
				return fmt.Errorf("health export: %w", err)
			}
			err = healthStore.WriteJSONL(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				return fmt.Errorf("health export: %w", err)
			}
			fmt.Fprintf(out, "health: exported %d series to %s\n", healthStore.Len(), *healthOut)
		}
		return nil
	}

	if *mode == "live" {
		slotDur := time.Duration(0)
		if *slotMs > 0 {
			slotDur = time.Duration(*slotMs * float64(time.Millisecond))
		}
		lcfg := load.FleetLiveConfig{
			Shards:    *shards,
			Zones:     *zones,
			Scorer:    *scorerName,
			Rebalance: rebalance,
			Recorder:  rec,
			Live: load.LiveConfig{
				Params:       params,
				NewAllocator: newAlloc,
				AllocName:    *algo,
				BudgetMbps:   *budget,
				SlotDuration: slotDur,
				Metrics:      reg,
				SLO:          slo,
				Breaker:      brk,
				Chaos:        chaosProf,
				Logf:         logf,
			},
			Health:       healthStore,
			Sampler:      healthSampler,
			Coordinators: *coordinators,
			Coord:        coord.Config{LeaseSlots: *leaseSlots},
		}
		if *evacOn {
			lcfg.Evac = fleet.EvacConfig{Enabled: true}
		}
		if chaosProf != nil {
			retrySlot := slotDur
			if retrySlot <= 0 && *sps > 0 {
				retrySlot = time.Duration(float64(time.Second) / *sps)
			}
			lcfg.Live.RetryPolicy = transport.DefaultRetryPolicy(retrySlot)
		}
		lcfg.CoordDebug = func(status func() coord.Status) {
			snapMu.Lock()
			coordStatus = status
			snapMu.Unlock()
		}
		rep, err := load.RunLiveFleet(w, lcfg)
		if err != nil {
			return err
		}
		setSnap(func(n int) obs.FleetSnapshot { return reportSnapshot(rep, rec, *budget, n) }, rep.Coord)
		fmt.Fprint(out, rep.FormatFleet())
		return finish(rep)
	}

	rep, err := load.SimulateFleet(w, simCfg(true, true))
	if err != nil {
		return err
	}
	setSnap(func(n int) obs.FleetSnapshot { return reportSnapshot(rep, rec, *budget, n) }, rep.Coord)
	fmt.Fprint(out, rep.FormatFleet())

	if *verifyRecovery {
		if err := verifyFleetRecovery(out, w, simCfg, chaosProf); err != nil {
			return err
		}
	}
	if *placementsOut != "" {
		if err := rec.Err(); err != nil {
			return fmt.Errorf("placement export: %w", err)
		}
		fmt.Fprintf(out, "placements: exported %d records to %s\n", rec.Records(), *placementsOut)
	}
	if slo != nil {
		fmt.Fprintf(out, "slo: warn transitions %d, page transitions %d\n",
			reg.Counter("collabvr_slo_warn_transitions_total").Value(),
			reg.Counter("collabvr_slo_page_transitions_total").Value())
	}
	return finish(rep)
}

// verifyFleetRecovery runs the campaign three times on fresh,
// observer-free configs to assert the resilience contract: shard faults
// degrade instead of dropping, identical runs reproduce bit for bit, and
// tail quality recovers to within 10% of the fault-free run.
func verifyFleetRecovery(out io.Writer, w *load.Workload,
	simCfg func(withChaos, withObs bool) load.FleetSimConfig, prof *chaos.Profile) error {
	faulted, err := load.SimulateFleet(w, simCfg(true, false))
	if err != nil {
		return err
	}

	// Degrades, not drops: every spawned session completed.
	if faulted.Completed != faulted.Spawned || faulted.Failed > 0 {
		return fmt.Errorf("verify-recovery: %d/%d sessions completed (%d failed) — shard faults dropped sessions",
			faulted.Completed, faulted.Spawned, faulted.Failed)
	}
	if prof.HasShardFaults() && faulted.Migrations == 0 {
		return fmt.Errorf("verify-recovery: shard faults migrated no sessions")
	}
	fmt.Fprintln(out, "degrades-not-drops: OK")

	// Bit for bit: an identical second run must be deep-equal.
	again, err := load.SimulateFleet(w, simCfg(true, false))
	if err != nil {
		return err
	}
	if !reflect.DeepEqual(faulted, again) {
		return fmt.Errorf("verify-recovery: two identical runs produced different reports — determinism broken")
	}
	fmt.Fprintln(out, "determinism: OK")

	// Tail quality against the fault-free run, after the migrations settle.
	clean, err := load.SimulateFleet(w, simCfg(false, false))
	if err != nil {
		return err
	}
	tailFrom := lastShardFaultSlot(prof) + 100
	tail := faulted.MeanSlotQuality(tailFrom, len(faulted.SlotQuality))
	want := clean.MeanSlotQuality(tailFrom, len(clean.SlotQuality))
	if want <= 0 {
		return fmt.Errorf("verify-recovery: no tail window after slot %d (horizon %d too short)",
			tailFrom, faulted.HorizonSlots)
	}
	if tail < 0.90*want {
		return fmt.Errorf("verify-recovery: post-fault tail quality %.3f < 90%% of fault-free %.3f", tail, want)
	}
	fmt.Fprintf(out, "recovery: OK (tail quality %.3f vs fault-free %.3f from slot %d)\n", tail, want, tailFrom)

	// Coordinator failover contract: when the campaign kills or partitions
	// coordinator replicas, every alive replica must still converge to one
	// owner map (no split brain), and a leader loss must have cost only a
	// bounded leaderless window.
	if prof.HasCoordFaults() {
		co := faulted.Coord
		if co == nil {
			return fmt.Errorf("verify-recovery: coord faults ran but the report has no coord outcome")
		}
		if !co.Converged {
			return fmt.Errorf("verify-recovery: coordinator replicas did not converge — split-brain ownership")
		}
		fmt.Fprintf(out, "coord failover: OK (term %d, elections %d, rejected %d, leaderless slots %d, converged)\n",
			co.Term, co.Elections, co.Rejected, co.LeaderlessSlots)
	}
	return nil
}

// lastShardFaultSlot returns the latest slot a shard fault begins.
func lastShardFaultSlot(p *chaos.Profile) int {
	last := 0
	for _, f := range p.ShardFaults() {
		if f.StartSlot > last {
			last = f.StartSlot
		}
	}
	return last
}

// reportSnapshot derives the /debug/fleet document from a finished run.
func reportSnapshot(rep *load.FleetReport, rec *obs.PlacementRecorder, global float64, n int) obs.FleetSnapshot {
	snap := obs.FleetSnapshot{
		Scorer:           rep.Scorer,
		GlobalBudgetMbps: global,
		Slot:             rep.HorizonSlots,
		Placements:       uint64(rep.Placements),
		Migrations:       rep.Migrations,
		Rebalances:       rep.Rebalances,
		Evacuations:      rep.Evacuations,
		RingCapacity:     rec.RingCapacity(),
		RingDropped:      rec.Dropped(),
		Recent:           rec.Recent(n),
	}
	for _, s := range rep.Shards {
		snap.Shards = append(snap.Shards, obs.FleetShardState{
			Shard:       s.Shard,
			Zone:        s.Zone,
			Alive:       s.KilledSlot < 0,
			Draining:    s.DrainSlot >= 0,
			BudgetMbps:  s.FinalBudgetMbps,
			Placed:      s.Placed,
			MigratedIn:  s.MigratedIn,
			MigratedOut: s.MigratedOut,
		})
	}
	return snap
}

// chaosSummary renders a profile's fault schedule for -chaos-check.
func chaosSummary(p *chaos.Profile) string {
	var b bytes.Buffer
	fmt.Fprintf(&b, "chaos profile %q: seed %d, %d fault(s)\n", p.Name, p.Seed, len(p.Faults))
	for i, f := range p.Faults {
		fmt.Fprintf(&b, "  fault %d: %-15s start slot %d", i, f.Kind, f.StartSlot)
		if f.DurationSlots > 0 {
			fmt.Fprintf(&b, ", %d slots", f.DurationSlots)
		} else {
			fmt.Fprint(&b, ", open-ended")
		}
		if len(f.Sessions) > 0 {
			fmt.Fprintf(&b, ", sessions %v", f.Sessions)
		}
		switch f.Kind {
		case chaos.FaultBurstLoss:
			fmt.Fprintf(&b, ", p_gb %g p_bg %g p_good %g p_bad %g", f.PGoodBad, f.PBadGood, f.PGood, f.PBad)
		case chaos.FaultLoss, chaos.FaultReorder, chaos.FaultDuplicate, chaos.FaultCorrupt:
			fmt.Fprintf(&b, ", p %g", f.P)
		case chaos.FaultBandwidth:
			fmt.Fprintf(&b, ", factor %g", f.Factor)
		case chaos.FaultStall, chaos.FaultSlowACK:
			fmt.Fprintf(&b, ", delay %g ms", f.DelayMs)
		case chaos.FaultShardKill, chaos.FaultShardDrain:
			fmt.Fprintf(&b, ", shard %d", f.Shard)
		case chaos.FaultCoordKill, chaos.FaultCoordPartition:
			fmt.Fprintf(&b, ", replica %d", f.Replica)
		}
		b.WriteByte('\n')
	}
	fmt.Fprintln(&b, "profile OK")
	return b.String()
}
