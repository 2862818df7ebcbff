package load

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/obs"
)

// Candidate is one policy entrant of a tournament: a named allocator
// factory, optionally with its own objective parameters (tuned alpha/beta
// variants compete under their own weights but are scored on the shared
// fitness function).
type Candidate struct {
	Name string
	// NewAllocator builds the candidate's allocator (fresh per run).
	NewAllocator func() core.Allocator
	// Params, when non-nil, overrides the tournament's base parameters for
	// this candidate's run.
	Params *core.Params
}

// FitnessWeights combines the per-candidate measurements into one scalar.
// Fitness = QoE*meanQoE + Fairness*jain - Miss*missRate - Regret*meanRegret,
// so higher is better on every axis.
type FitnessWeights struct {
	QoE      float64 `json:"qoe"`
	Fairness float64 `json:"fairness"`
	Miss     float64 `json:"miss"`
	Regret   float64 `json:"regret"`
}

// DefaultFitnessWeights weight mean session QoE and Jain fairness equally,
// penalize deadline misses hard (a missed frame is the QoE cliff the paper
// optimizes against) and regret lightly (it is measured per slot on the
// objective scale, already reflected in QoE).
func DefaultFitnessWeights() FitnessWeights {
	return FitnessWeights{QoE: 1, Fairness: 1, Miss: 5, Regret: 0.05}
}

// TournamentConfig parametrizes a deterministic policy tournament.
type TournamentConfig struct {
	// Sim is the base engine config shared by every candidate. Its
	// NewAllocator/AllocName/Recorder fields are ignored: each candidate
	// runs hermetically with its own allocator and flight recorder.
	Sim SimConfig
	// Candidates is the roster (default: DefaultCandidates()).
	Candidates []Candidate
	// Weights is the fitness function (zero value: DefaultFitnessWeights).
	Weights FitnessWeights
	// SkipRegret disables the per-slot DP reference solve (fitness then
	// scores regret as zero) — a fast mode for large workloads.
	SkipRegret bool
}

// TournamentEntry is one candidate's scored result.
type TournamentEntry struct {
	Rank       int     `json:"rank"`
	Name       string  `json:"name"`
	Fitness    float64 `json:"fitness"`
	MeanQoE    float64 `json:"mean_qoe"`
	Fairness   float64 `json:"fairness"`
	MissRate   float64 `json:"miss_rate"`
	MeanRegret float64 `json:"mean_regret"`
	// TotalRegret and AttributedFraction summarize the candidate's regret
	// attribution (zero with SkipRegret).
	TotalRegret        float64 `json:"total_regret"`
	AttributedFraction float64 `json:"attributed_fraction"`
	// Completed sessions and degraded slots, for context.
	Completed     int `json:"completed"`
	DegradedSlots int `json:"degraded_slots"`
}

// TournamentResult is the ranked outcome of one tournament.
type TournamentResult struct {
	HorizonSlots int               `json:"horizon_slots"`
	Sessions     int               `json:"sessions"`
	Weights      FitnessWeights    `json:"weights"`
	Entries      []TournamentEntry `json:"entries"`
}

// DefaultCandidates is the standard roster, built from the allocator
// registry (baseline.AllocatorByName): Algorithm 1 through both of its
// entry points (the scratch-keeping SolverAllocator and the stateless
// pooled DVGreedy — they must tie exactly, a built-in sanity check), the
// single-branch ablations, the three baselines, and two tuned alpha/beta
// variants of the proposed algorithm.
func DefaultCandidates(base core.Params) []Candidate {
	alphaHi, betaHi := base, base
	alphaHi.Alpha *= 2
	betaHi.Beta *= 2
	return []Candidate{
		{Name: "dvgreedy", NewAllocator: baseline.MustFactory("dvgreedy")},
		{Name: "dvgreedy-scan", NewAllocator: baseline.MustFactory("dvgreedy-scan")},
		{Name: "density-only", NewAllocator: baseline.MustFactory("density")},
		{Name: "value-only", NewAllocator: baseline.MustFactory("value")},
		{Name: "firefly", NewAllocator: baseline.MustFactory("firefly")},
		{Name: "pavq", NewAllocator: baseline.MustFactory("pavq")},
		{Name: "uniform", NewAllocator: baseline.MustFactory("uniform")},
		{Name: "dvgreedy-alpha2x", NewAllocator: baseline.MustFactory("dvgreedy"), Params: &alphaHi},
		{Name: "dvgreedy-beta2x", NewAllocator: baseline.MustFactory("dvgreedy"), Params: &betaHi},
	}
}

// jainIndex is Jain's fairness index over non-negative xs: (sum x)^2 /
// (n * sum x^2), 1 when perfectly equal, 1/n when one user takes all.
// Negative values (a session with net-negative QoE) clamp to zero.
func jainIndex(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum, sumSq float64
	for _, x := range xs {
		if x < 0 {
			x = 0
		}
		sum += x
		sumSq += x * x
	}
	if sumSq == 0 {
		return 0
	}
	return sum * sum / (float64(len(xs)) * sumSq)
}

// RunTournament runs every candidate through the deterministic virtual-time
// engine on the identical workload and ranks them by fitness. Each candidate
// gets a hermetic run: its own allocator, flight recorder and regret
// attributor, with the shared-state observers of the base config (metrics,
// tracer, SLO, breaker) detached so no candidate's run leaks into another.
// The ranking is bit-stable: same workload, same config, same order — ties
// break by candidate name.
func RunTournament(w *Workload, cfg TournamentConfig) (*TournamentResult, error) {
	candidates := cfg.Candidates
	if len(candidates) == 0 {
		candidates = DefaultCandidates(cfg.Sim.withDefaults().Params)
	}
	weights := cfg.Weights
	if weights == (FitnessWeights{}) {
		weights = DefaultFitnessWeights()
	}
	seen := make(map[string]bool, len(candidates))
	result := &TournamentResult{
		HorizonSlots: w.Cfg.HorizonSlots,
		Sessions:     len(w.Sessions),
		Weights:      weights,
	}
	for _, c := range candidates {
		if c.Name == "" || c.NewAllocator == nil {
			return nil, fmt.Errorf("load: tournament candidate needs Name and NewAllocator")
		}
		if seen[c.Name] {
			return nil, fmt.Errorf("load: duplicate tournament candidate %q", c.Name)
		}
		seen[c.Name] = true

		simCfg := cfg.Sim
		simCfg.NewAllocator = c.NewAllocator
		simCfg.AllocName = c.Name
		if c.Params != nil {
			simCfg.Params = *c.Params
		}
		// Hermetic run: per-candidate recorder/attributor, shared observers
		// detached.
		simCfg.Metrics, simCfg.Tracer, simCfg.SLO, simCfg.Breaker = nil, nil, nil, nil
		attr := obs.NewRegretAttributor(obs.RegretAttributorOptions{})
		simCfg.Recorder = obs.NewRecorder(obs.RecorderOptions{RingSize: 1, Attributor: attr})
		simCfg.RegretRef = !cfg.SkipRegret

		report, err := Simulate(w, simCfg)
		if err != nil {
			return nil, fmt.Errorf("load: tournament candidate %q: %w", c.Name, err)
		}

		qoe := make([]float64, len(report.Outcomes))
		var qoeSum float64
		for i, o := range report.Outcomes {
			qoe[i] = o.QoE
			qoeSum += o.QoE
		}
		entry := TournamentEntry{
			Name:          c.Name,
			Fairness:      jainIndex(qoe),
			MissRate:      report.AggregateMissRate(),
			Completed:     report.Completed,
			DegradedSlots: report.DegradedSlots,
		}
		if len(qoe) > 0 {
			entry.MeanQoE = qoeSum / float64(len(qoe))
		}
		rep := attr.Report()
		if rep.Slots > 0 {
			entry.MeanRegret = rep.TotalRegret / float64(rep.Slots)
		}
		entry.TotalRegret = rep.TotalRegret
		entry.AttributedFraction = rep.AttributedFraction
		entry.Fitness = weights.QoE*entry.MeanQoE + weights.Fairness*entry.Fairness -
			weights.Miss*entry.MissRate - weights.Regret*entry.MeanRegret
		result.Entries = append(result.Entries, entry)
	}

	sort.SliceStable(result.Entries, func(i, j int) bool {
		a, b := result.Entries[i], result.Entries[j]
		if a.Fitness != b.Fitness {
			return a.Fitness > b.Fitness
		}
		return a.Name < b.Name
	})
	for i := range result.Entries {
		result.Entries[i].Rank = i + 1
	}
	return result, nil
}

// Format renders the ranked tournament table.
func (r *TournamentResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# policy tournament (%d sessions, %d slots)\n",
		r.Sessions, r.HorizonSlots)
	fmt.Fprintf(&b, "fitness = %.3g*qoe + %.3g*fairness - %.3g*miss - %.3g*regret\n",
		r.Weights.QoE, r.Weights.Fairness, r.Weights.Miss, r.Weights.Regret)
	fmt.Fprintf(&b, "%4s  %-18s %10s %10s %10s %10s %12s\n",
		"rank", "policy", "fitness", "mean_qoe", "fairness", "miss_rate", "mean_regret")
	for _, e := range r.Entries {
		fmt.Fprintf(&b, "%4d  %-18s %10.4f %10.4f %10.4f %10.4f %12.4f\n",
			e.Rank, e.Name, e.Fitness, e.MeanQoE, e.Fairness, e.MissRate, e.MeanRegret)
	}
	return b.String()
}
