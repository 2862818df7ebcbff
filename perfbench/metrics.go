package main

import (
	"fmt"
	"math"
	"regexp"
)

// metricDef names one reported metric. The table below is the single
// source of the metric names; BENCHMARK.json at the repository root must
// list the same names, units and directions (perfbench_test.go checks it).
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression (0 for
	// per-layer metrics, which carry no bound).
	Bound float64
}

// endToEnd are the user-facing metrics, measured with tracing off. Every
// workload reports every one of them. Wall-clock throughput and slot
// latency are per-layer metrics instead: on a shared VM they moved with
// hypervisor steal by more than any bound of 25% (see README.md).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"slot_cpu_ms_p50", "ms", "lower", 0.25},
	{"cpu_us_per_session_slot", "us", "lower", 0.25},
	{"qoe_mean", "score", "higher", 0.15},
	{"frames_missed_frac", "ratio", "lower", 0.2},
	{"sessions_served_frac", "ratio", "higher", 0.05},
}

// perLayer are the traced run's per-layer metrics, grouped by the paper's
// prediction / computing / communication split of the frame budget. A
// workload that does not exercise a layer reports 0 for it.
var perLayer = []metricDef{
	// Per-session set-up (prediction inputs).
	{"session.setup_us", "us", "lower", 0},
	{"motion.generate_us", "us", "lower", 0},
	{"nettrace.capslots_us", "us", "lower", 0},
	{"chaos.injector_us", "us", "lower", 0},
	// Prediction.
	{"motion.predict_ns", "ns", "lower", 0},
	{"motion.observe_ns", "ns", "lower", 0},
	{"motion.covered_frac", "ratio", "higher", 0},
	// Computing: tile selection, rate and delay tables, the solve.
	{"tiles.select_ns", "ns", "lower", 0},
	{"tiles.ratetable_ns", "ns", "lower", 0},
	{"netem.delaytable_ns", "ns", "lower", 0},
	{"chaos.advance_ns", "ns", "lower", 0},
	{"core.solve_us_p50", "us", "lower", 0},
	{"core.solve_us_p99", "us", "lower", 0},
	{"core.solve_ns_per_user", "ns", "lower", 0},
	{"core.users_per_slot", "count", "higher", 0},
	{"core.budget_util", "ratio", "higher", 0},
	{"metrics.outcome_ns", "ns", "lower", 0},
	{"load.unattributed_frac", "ratio", "lower", 0},
	{"load.workers_speedup", "x", "higher", 0},
	// Wall clock of the workload's own engine, untraced but for the probe.
	{"load.session_slots_per_s", "1/s", "higher", 0},
	{"load.slot_ms_p50", "ms", "lower", 0},
	{"load.slot_ms_p99", "ms", "lower", 0},
	{"load.slot_cpu_ms_p99", "ms", "lower", 0},
	// Communication: server dispatch, transport, client.
	{"server.decide_ms_p99", "ms", "lower", 0},
	{"server.admit_us", "us", "lower", 0},
	{"server.fetch_us", "us", "lower", 0},
	{"server.tiles_skipped_frac", "ratio", "lower", 0},
	{"tiles.store_hit_ratio", "ratio", "higher", 0},
	{"transport.send_us_p50", "us", "lower", 0},
	{"transport.send_us_p99", "us", "lower", 0},
	{"transport.tx_packets_per_s", "1/s", "lower", 0},
	{"transport.tx_dropped_frac", "ratio", "lower", 0},
	{"transport.retransmit_tiles", "count", "lower", 0},
	{"client.recv_ms_p99", "ms", "lower", 0},
	{"client.delivery_ms_p50", "ms", "lower", 0},
	{"client.delivery_ms_p99", "ms", "lower", 0},
	{"client.decode_overflow_frac", "ratio", "lower", 0},
	{"client.rx_incomplete_frac", "ratio", "lower", 0},
	// Fleet control plane.
	{"fleet.migrations", "count", "lower", 0},
	{"fleet.outage_slot_frac", "ratio", "lower", 0},
	{"fleet.rebalances", "count", "lower", 0},
	{"coord.commits_per_slot", "count", "lower", 0},
	{"coord.rejected_frac", "ratio", "lower", 0},
	{"coord.leaderless_slots", "count", "lower", 0},
	// Whole process.
	{"process.alloc_bytes_per_session_slot", "B", "lower", 0},
	{"process.gc_cycles", "count", "lower", 0},
	{"trace.overhead_pct", "%", "lower", 0},
}

var (
	metricNameRe = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	metricUnitRe = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// validateDefs checks names and units against the result-line grammar and
// that no name is used twice.
func validateDefs(defs ...[]metricDef) error {
	seen := map[string]bool{}
	for _, set := range defs {
		for _, d := range set {
			if !metricNameRe.MatchString(d.Name) {
				return fmt.Errorf("metric name %q is not valid", d.Name)
			}
			if !metricUnitRe.MatchString(d.Unit) {
				return fmt.Errorf("metric %s: unit %q is not valid", d.Name, d.Unit)
			}
			if d.Better != "lower" && d.Better != "higher" {
				return fmt.Errorf("metric %s: better %q is not lower or higher", d.Name, d.Better)
			}
			if seen[d.Name] {
				return fmt.Errorf("metric name %q used twice", d.Name)
			}
			seen[d.Name] = true
		}
	}
	return nil
}

// value is one reported metric value in the result line.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// collect builds the result-line metrics map for defs from got. Every
// metric in defs must be present and finite; end-to-end metrics must also
// be nonzero, since a zero median cannot anchor a relative bound.
func collect(defs []metricDef, got map[string]float64, nonzero bool) (map[string]value, error) {
	out := make(map[string]value, len(defs))
	for _, d := range defs {
		v, ok := got[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is not finite (%v)", d.Name, v)
		}
		if nonzero && v == 0 {
			return nil, fmt.Errorf("metric %s is 0", d.Name)
		}
		out[d.Name] = value{Value: v, Unit: d.Unit}
	}
	return out, nil
}
