package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/load"
)

func TestMetricDefsValid(t *testing.T) {
	if err := validateDefs(endToEnd, perLayer); err != nil {
		t.Fatal(err)
	}
	var setup *metricDef
	for i, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		if d.Name == "setup_s" {
			setup = &endToEnd[i]
		}
	}
	if setup == nil || setup.Unit != "s" || setup.Better != "lower" {
		t.Fatalf("setup_s must be an end-to-end metric in s, lower is better: %+v", setup)
	}
	for _, d := range endToEnd {
		if d.Bound > setup.Bound {
			t.Errorf("%s bound %v exceeds setup_s bound %v", d.Name, d.Bound, setup.Bound)
		}
	}
}

func TestValidateDefsRejects(t *testing.T) {
	for _, bad := range []metricDef{
		{Name: "_leading", Unit: "s", Better: "lower"},
		{Name: "has space", Unit: "s", Better: "lower"},
		{Name: strings.Repeat("a", 65), Unit: "s", Better: "lower"},
		{Name: "ok", Unit: "µs", Better: "lower"},
		{Name: "ok", Unit: "", Better: "lower"},
		{Name: "ok", Unit: "s", Better: "faster"},
	} {
		if err := validateDefs([]metricDef{bad}); err == nil {
			t.Errorf("validateDefs accepted %+v", bad)
		}
	}
	dup := []metricDef{{"a", "s", "lower", 0}, {"a", "ms", "lower", 0}}
	if err := validateDefs(dup); err == nil {
		t.Error("validateDefs accepted a duplicate name")
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json at the repository root in
// step with the metric tables and the workload list.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type jsonMetric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var spec struct {
		Workloads []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []jsonMetric `json:"end_to_end"`
		PerLayer []jsonMetric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, perfbench has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name || w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %d: %+v does not match %q or has a bad why", i, w, workloads[i].name)
		}
	}
	compare := func(kind string, got []jsonMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, perfbench %d", kind, len(got), len(want))
		}
		for i, g := range got {
			w := want[i]
			if g.Name != w.Name || g.Unit != w.Unit || g.Better != w.Better {
				t.Errorf("%s %d: %+v != %+v", kind, i, g, w)
			}
			if bounded != (g.Bound != nil) || (bounded && *g.Bound != w.Bound) {
				t.Errorf("%s %s: bound mismatch", kind, g.Name)
			}
		}
	}
	compare("end_to_end", spec.EndToEnd, endToEnd, true)
	compare("per_layer", spec.PerLayer, perLayer, false)
}

func TestCollect(t *testing.T) {
	defs := []metricDef{{"a", "s", "lower", 0.1}, {"b", "ms", "lower", 0.1}}
	if _, err := collect(defs, map[string]float64{"a": 1}, true); err == nil {
		t.Error("collect accepted a missing metric")
	}
	if _, err := collect(defs, map[string]float64{"a": 1, "b": math.NaN()}, true); err == nil {
		t.Error("collect accepted NaN")
	}
	if _, err := collect(defs, map[string]float64{"a": 1, "b": math.Inf(1)}, false); err == nil {
		t.Error("collect accepted Inf")
	}
	if _, err := collect(defs, map[string]float64{"a": 1, "b": 0}, true); err == nil {
		t.Error("collect accepted 0 for a nonzero metric")
	}
	got, err := collect(defs, map[string]float64{"a": 1, "b": 0}, false)
	if err != nil || got["b"].Unit != "ms" {
		t.Errorf("collect = %v, %v", got, err)
	}
}

func validReport() *load.RunReport {
	return &load.RunReport{
		Mode: "sim", Spawned: 3, Completed: 2, Failed: 1,
		SlotQuality: []float64{1, 2},
		Outcomes: []load.SessionOutcome{
			{ID: 0, Slots: 10, QoE: 1, MissFrac: 0.1, Coverage: 0.9},
			{ID: 1, Slots: 10, QoE: 2, MissFrac: 0.3, Coverage: 1},
		},
	}
}

func TestCheckReport(t *testing.T) {
	if err := checkReport(validReport()); err != nil {
		t.Fatalf("valid report rejected: %v", err)
	}
	for name, mutate := range map[string]func(r *load.RunReport){
		"accounting":    func(r *load.RunReport) { r.Failed = 0 },
		"outcome count": func(r *load.RunReport) { r.Outcomes = r.Outcomes[:1]; r.Failed = 2 },
		"nan qoe":       func(r *load.RunReport) { r.Outcomes[0].QoE = math.NaN() },
		"inf delay":     func(r *load.RunReport) { r.Outcomes[1].DelayMs = math.Inf(1) },
		"miss > 1":      func(r *load.RunReport) { r.Outcomes[0].MissFrac = 1.5 },
		"miss < 0":      func(r *load.RunReport) { r.Outcomes[0].MissFrac = -0.1 },
		"nan slot":      func(r *load.RunReport) { r.SlotQuality[1] = math.NaN() },
		"empty":         func(r *load.RunReport) { *r = load.RunReport{} },
	} {
		r := validReport()
		mutate(r)
		if err := checkReport(r); err == nil {
			t.Errorf("%s: checkReport accepted a broken report", name)
		}
	}
}

func TestCheckFleet(t *testing.T) {
	fr := &load.FleetReport{
		RunReport: *validReport(), Placements: 2, PlacementsFailed: 1,
		Coord: &load.CoordOutcome{Replicas: 3, Converged: true},
	}
	if err := checkFleet(fr); err != nil {
		t.Fatalf("valid fleet report rejected: %v", err)
	}
	fr.Coord.Converged = false
	if err := checkFleet(fr); err == nil {
		t.Error("checkFleet accepted an unconverged cluster")
	}
	fr.Coord = nil
	if err := checkFleet(fr); err == nil {
		t.Error("checkFleet accepted a missing coordinator outcome")
	}
}

func TestFingerprint(t *testing.T) {
	a, err := fingerprint(validReport())
	if err != nil {
		t.Fatal(err)
	}
	b, _ := fingerprint(validReport())
	if a != b || len(a) != 64 {
		t.Fatalf("fingerprint not stable: %s vs %s", a, b)
	}
	r := validReport()
	r.Outcomes[1].QoE = math.Nextafter(2, 3)
	if c, _ := fingerprint(r); c == a {
		t.Error("fingerprint missed a one-ulp change")
	}
	r.Outcomes[0].QoE = math.NaN()
	if _, err := fingerprint(r); err == nil {
		t.Error("fingerprint accepted NaN")
	}
}

// smallWorkload is a cut-down sim workload for the differential tests.
func smallWorkload(t *testing.T, name string, mutate func(*load.Config)) (*workload, *load.Workload) {
	t.Helper()
	w, err := workloadByName(name)
	if err != nil {
		t.Fatal(err)
	}
	cfg := w.gen(7)
	mutate(&cfg)
	wl, err := load.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return w, wl
}

// TestReplayAndProbeMatchSimulate is the contract behind the per-layer
// numbers and the probe-derived slot times: the traced replay and the
// probe-wrapped engine reproduce load.Simulate's report bit for bit.
func TestReplayAndProbeMatchSimulate(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(*load.Config)
	}{
		{"sim-steady", func(c *load.Config) { c.Sessions, c.HorizonSlots = 40, 240 }},
		{"sim-churn", func(c *load.Config) { c.HorizonSlots = 400 }},
	} {
		w, wl := smallWorkload(t, tc.name, tc.mutate)
		p, err := w.chaosProfile()
		if err != nil {
			t.Fatal(err)
		}
		ref, err := load.Simulate(wl, w.simConfig(p, 1, nil))
		if err != nil {
			t.Fatal(err)
		}
		refFP, _ := fingerprint(ref)

		st := newStamps(time.Now(), wl.Cfg.HorizonSlots)
		wrapped, err := load.Simulate(wl, w.simConfig(p, 2, st))
		if err != nil {
			t.Fatal(err)
		}
		if fp, _ := fingerprint(wrapped); fp != refFP {
			t.Errorf("%s: probe-wrapped Simulate fingerprint differs", tc.name)
		}
		if len(st.slotStarts) == 0 || len(st.solveNs) < len(st.slotStarts) || st.setup() <= 0 {
			t.Errorf("%s: probe recorded %d slots, %d solves, setup %v", tc.name, len(st.slotStarts), len(st.solveNs), st.setup())
		}

		rep, lt := replay(wl, w.simConfig(p, 1, nil), newStamps(time.Now(), wl.Cfg.HorizonSlots))
		if err := checkReport(rep); err != nil {
			t.Fatal(err)
		}
		if fp, _ := fingerprint(rep); fp != refFP {
			t.Errorf("%s: replay fingerprint differs from Simulate", tc.name)
		}
		if lt.sessionSlots != sessionSlots(ref) || lt.setupSessions != len(wl.Sessions) {
			t.Errorf("%s: replay counted %d session-slots / %d sessions, want %d / %d",
				tc.name, lt.sessionSlots, lt.setupSessions, sessionSlots(ref), len(wl.Sessions))
		}
		m := map[string]float64{}
		lt.fill(m)
		if u := m["load.unattributed_frac"]; u < 0 || u >= 1 {
			t.Errorf("%s: unattributed share %v outside [0,1)", tc.name, u)
		}
	}
}

// TestFleetProbeMatches checks the probe on the fleet engine, which builds
// one allocator per shard.
func TestFleetProbeMatches(t *testing.T) {
	w, wl := smallWorkload(t, "fleet-failover", func(c *load.Config) { c.HorizonSlots = 800; c.RatePerSec = 20 })
	p, err := w.chaosProfile()
	if err != nil {
		t.Fatal(err)
	}
	ref, err := load.SimulateFleet(wl, w.fleetConfig(p, nil))
	if err != nil {
		t.Fatal(err)
	}
	if err := checkFleet(ref); err != nil {
		t.Fatal(err)
	}
	st := newStamps(time.Now(), wl.Cfg.HorizonSlots*w.shards)
	wrapped, err := load.SimulateFleet(wl, w.fleetConfig(p, st))
	if err != nil {
		t.Fatal(err)
	}
	a, _ := fingerprint(ref)
	b, _ := fingerprint(wrapped)
	if a != b {
		t.Error("probe-wrapped SimulateFleet fingerprint differs")
	}
	if len(st.slotStarts) > wl.Cfg.HorizonSlots || len(st.solveNs) < len(st.slotStarts) {
		t.Errorf("probe recorded %d slots and %d solves over %d slots", len(st.slotStarts), len(st.solveNs), wl.Cfg.HorizonSlots)
	}
}

// TestRunRejectsBadArguments checks the exit status and that no result
// line is printed for bad arguments.
func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "sim-steady", "--trace", "2"},
		{"--workload", "sim-steady", "--seconds", "0"},
	} {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code == 0 || strings.Contains(out.String(), `"correct"`) {
			t.Errorf("run(%v) = %d, stdout %q", args, code, out.String())
		}
	}
}
