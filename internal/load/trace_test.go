package load

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/trace"
)

// TestSimulateEmitsStitchedSpans checks the virtual-time engine speaks the
// same span schema as the live engine: a single Simulate run produces
// server- and client-side spans that stitch into per-request traces, with
// every trace ID derivable from (epoch, user, slot) and the solve labelled
// with the algorithm name.
func TestSimulateEmitsStitchedSpans(t *testing.T) {
	const epoch = 9
	w, err := Generate(Config{Shape: Steady, Sessions: 4, HorizonSlots: 60,
		MeanHoldSec: 0.5, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	exp := trace.NewExporter(trace.ExporterOptions{RingSize: 1 << 14, Writer: &buf, Sync: true})
	tr := trace.New(trace.Options{Exporter: exp})
	rep, err := Simulate(w, SimConfig{Tracer: tr, TraceEpoch: epoch})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed == 0 {
		t.Fatal("no sessions completed")
	}
	if err := exp.Close(); err != nil {
		t.Fatal(err)
	}
	if exp.Dropped() != 0 {
		t.Fatalf("sync exporter dropped %d spans", exp.Dropped())
	}

	spans, err := trace.ReadSpans(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) == 0 {
		t.Fatal("no spans exported")
	}
	stages := make(map[string]int)
	for _, sp := range spans {
		stages[sp.Stage]++
		if want := trace.TileTraceID(epoch, sp.User, sp.Slot); sp.Trace != want {
			t.Fatalf("span %s user=%d slot=%d trace=%x, want %x",
				sp.Stage, sp.User, sp.Slot, sp.Trace, want)
		}
		if sp.Stage == trace.StageDecide && sp.Algo != "proposed" {
			t.Fatalf("decide span algo %q, want proposed", sp.Algo)
		}
		if sp.EndNs < sp.StartNs {
			t.Fatalf("span %s runs backwards: %d..%d", sp.Stage, sp.StartNs, sp.EndNs)
		}
	}
	for _, want := range []string{trace.StageDecide, trace.StageSend, trace.StageRecv, trace.StageDisplay} {
		if stages[want] == 0 {
			t.Errorf("no %s spans", want)
		}
	}
	a := trace.Analyze(spans, 3)
	if a.Stitched == 0 {
		t.Fatalf("no stitched traces out of %d", a.Traces)
	}
	if a.Displayed+a.Missed != a.Traces {
		t.Errorf("outcome accounting: displayed %d + missed %d != traces %d",
			a.Displayed, a.Missed, a.Traces)
	}
}

// TestSimulateSpanDeterminism pins the virtual-clock parts of the span
// stream: two runs over the same workload emit the identical span sequence,
// except for the slot.decide span's end timestamp, which is the measured
// wall time of the solve (the one real cost inside a virtual slot).
func TestSimulateSpanDeterminism(t *testing.T) {
	w, err := Generate(Config{Shape: Steady, Sessions: 3, HorizonSlots: 50,
		MeanHoldSec: 0.5, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	run := func() []trace.SpanRecord {
		var buf bytes.Buffer
		exp := trace.NewExporter(trace.ExporterOptions{RingSize: 1 << 14, Writer: &buf, Sync: true})
		tr := trace.New(trace.Options{Exporter: exp})
		if _, err := Simulate(w, SimConfig{Tracer: tr, TraceEpoch: 1}); err != nil {
			t.Fatal(err)
		}
		if err := exp.Close(); err != nil {
			t.Fatal(err)
		}
		spans, err := trace.ReadSpans(&buf)
		if err != nil {
			t.Fatal(err)
		}
		for i := range spans {
			if spans[i].Stage == trace.StageDecide {
				spans[i].EndNs = 0 // wall-measured solve duration
			}
		}
		return spans
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("span counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("span %d differs:\n  %+v\n  %+v", i, a[i], b[i])
		}
	}
}

// TestSimulateFeedsSLO starves the virtual egress so every slot misses its
// deadline and checks the SLO monitor wired through SimConfig pages, and
// that sessions are retired on departure.
func TestSimulateFeedsSLO(t *testing.T) {
	w, err := Generate(Config{Shape: Steady, Sessions: 3, HorizonSlots: 80,
		MeanHoldSec: 1, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	slo := obs.NewSLOMonitor(obs.SLOConfig{WindowSlots: 40, ShortWindowSlots: 10}, reg)
	if _, err := Simulate(w, SimConfig{BudgetMbps: 0.5, Metrics: reg, SLO: slo}); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("collabvr_slo_page_transitions_total").Value(); got == 0 {
		t.Error("starved egress produced no SLO pages")
	}
	if snap := slo.Snapshot(); len(snap.Sessions) != 0 {
		t.Errorf("%d sessions not retired after departure", len(snap.Sessions))
	}
}

// TestRunLiveTracePropagation runs the live loopback engine with a shared
// tracer and checks the load layer forwards it to both halves: the exported
// stream stitches server and client spans under the configured epoch.
func TestRunLiveTracePropagation(t *testing.T) {
	const epoch = 21
	w, err := Generate(Config{Shape: Steady, Sessions: 4, HorizonSlots: 60,
		MeanHoldSec: 0.5, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	tracer := trace.New(trace.Options{Exporter: trace.NewExporter(trace.ExporterOptions{RingSize: 1 << 15})})
	rep, err := RunLive(w, LiveConfig{
		SlotDuration: 5 * time.Millisecond,
		Unshaped:     true,
		Tracer:       tracer,
		TraceEpoch:   epoch,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed == 0 {
		t.Fatal("no sessions completed")
	}
	spans := tracer.Exporter().Recent(1 << 15)
	if len(spans) == 0 {
		t.Fatal("no spans recorded")
	}
	for _, sp := range spans {
		if sp.Side == trace.SideServer {
			if want := trace.TileTraceID(epoch, sp.User, sp.Slot); sp.Trace != want {
				t.Fatalf("server span %s user=%d slot=%d trace=%x, want %x",
					sp.Stage, sp.User, sp.Slot, sp.Trace, want)
			}
		}
	}
	a := trace.Analyze(spans, 3)
	if a.Stitched == 0 {
		t.Fatalf("no stitched traces (%d traces, %d spans)", a.Traces, len(spans))
	}
}

// TestSimulateFleetEmitsSpans checks the fleet honours Sim.Tracer through
// the shared slot core: every served session-slot yields one display span,
// and tracing does not move a bit of the report.
func TestSimulateFleetEmitsSpans(t *testing.T) {
	w, err := Generate(Config{Shape: Steady, Sessions: 6, HorizonSlots: 120, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := SimulateFleet(w, FleetSimConfig{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	exp := trace.NewExporter(trace.ExporterOptions{RingSize: 1 << 14, Writer: &buf, Sync: true})
	cfg := FleetSimConfig{Shards: 2}
	cfg.Sim.Tracer = trace.New(trace.Options{Exporter: exp})
	traced, err := SimulateFleet(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := exp.Close(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, traced) {
		t.Fatal("tracing changed the fleet report")
	}
	spans, err := trace.ReadSpans(&buf)
	if err != nil {
		t.Fatal(err)
	}
	displays, slots := 0, 0
	for _, sp := range spans {
		if sp.Stage == trace.StageDisplay {
			displays++
		}
	}
	for _, o := range traced.Outcomes {
		slots += o.Slots
	}
	if displays == 0 || displays != slots {
		t.Errorf("display spans %d, served session-slots %d", displays, slots)
	}
}
