package main

import (
	_ "embed"
	"fmt"

	"repro/internal/chaos"
	"repro/internal/load"
)

// The chaos profiles are copies of examples/chaos/smoke.json and
// examples/chaos/coordkill.json, embedded so that an edit to the examples
// cannot silently change what the benchmark measures.
var (
	//go:embed profiles/smoke.json
	smokeProfile []byte
	//go:embed profiles/coordkill.json
	coordkillProfile []byte
)

// Engine selects the public entry point a workload drives.
type engine int

const (
	engineSim engine = iota
	engineFleet
)

// maxSubWorkloads bounds workload.subWorkloads; sub-workload seeds are
// seed*maxSubWorkloads+k.
const maxSubWorkloads = 64

// workload is one benchmark workload: its engine, the seeded generator
// configuration and the engine configuration. Budgets follow Section IV:
// 36 Mbps per (expected concurrent) session.
type workload struct {
	name   string
	engine engine
	gen    func(seed int64) load.Config
	// budgetMbps is the server (or fleet-wide) budget B(t).
	budgetMbps float64
	// profile is the embedded chaos profile, nil for none.
	profile []byte
	// shards and coordinators size the fleet (engineFleet only).
	shards, coordinators int
	// subWorkloads is how many independent inputs one run draws from its
	// seed. The quality metrics average over all of them, so a run
	// covers enough sessions that its QoE and miss share do not hinge on
	// a handful of bad network traces.
	subWorkloads int
}

var workloads = []workload{
	{
		// ~1000 sessions for the whole horizon, all present from slot 0:
		// build and solve at large N dominate; session construction is a
		// one-off that setup_s carries.
		name:   "sim-steady",
		engine: engineSim,
		gen: func(seed int64) load.Config {
			return load.Config{Shape: load.Steady, Seed: seed, HorizonSlots: 300, Sessions: 1000, RampSlots: 1}
		},
		budgetMbps:   36 * 1000,
		subWorkloads: 8,
	},
	{
		// Poisson arrivals at 100/s with a 2 s mean hold (~200 concurrent,
		// ~6k sessions per 3600 slots) under the smoke chaos profile:
		// per-session set-up (RNG seeding, motion trace, capacity trace,
		// chaos injector) dominates, the solve is smaller.
		name:   "sim-churn",
		engine: engineSim,
		gen: func(seed int64) load.Config {
			return load.Config{Shape: load.Poisson, Seed: seed, HorizonSlots: 1800, RatePerSec: 100, MeanHoldSec: 2}
		},
		budgetMbps:   36 * 100 * 2,
		profile:      smokeProfile,
		subWorkloads: 4,
	},
	{
		// SimulateFleet with 4 shards and 3 coordinators under
		// coordkill.json (shard drain, leader kill mid-migration,
		// partition) and Poisson churn: router, rebalancer, migration and
		// coordinator commits.
		name:   "fleet-failover",
		engine: engineFleet,
		gen: func(seed int64) load.Config {
			return load.Config{Shape: load.Poisson, Seed: seed, HorizonSlots: 1800, RatePerSec: 100, MeanHoldSec: 2}
		},
		budgetMbps:   36 * 100 * 2,
		profile:      coordkillProfile,
		shards:       4,
		coordinators: 3,
		subWorkloads: 4,
	},
}

func workloadByName(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// chaosProfile parses the workload's embedded chaos profile.
func (w *workload) chaosProfile() (*chaos.Profile, error) {
	if w.profile == nil {
		return nil, nil
	}
	return chaos.ParseProfile(w.profile)
}

// simConfig is the engine configuration of the sim and fleet workloads;
// newAlloc is nil for the unwrapped production allocator.
func (w *workload) simConfig(p *chaos.Profile, workers int, st *stamps) load.SimConfig {
	cfg := load.SimConfig{
		BudgetMbps: w.budgetMbps,
		Chaos:      p,
		Workers:    workers,
		AllocName:  "proposed",
	}
	if st != nil {
		cfg.NewAllocator = st.newAllocator()
	}
	return cfg
}

func (w *workload) fleetConfig(p *chaos.Profile, st *stamps) load.FleetSimConfig {
	return load.FleetSimConfig{
		Sim:          w.simConfig(p, 0, st),
		Shards:       w.shards,
		Coordinators: w.coordinators,
	}
}
