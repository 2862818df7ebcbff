// Command perfbench is the repository benchmark: four seeded workloads
// driven through the public engine entry points load.Simulate,
// load.RunLive and load.SimulateFleet, reporting end-to-end metrics with
// tracing off (--trace 0) or per-layer metrics from a traced run
// (--trace 1). See README.md for the metric table and workload rationale.
//
// Usage:
//
//	perfbench --workload sim-steady --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The exit status is nonzero when
// a correctness check fails.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"
)

// result is the benchmark's final output line.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: sim-steady, sim-churn, fleet-failover")
	seed := fs.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 20, "wall-clock seconds one run measures")
	traced := fs.Int("trace", 0, "0: end-to-end metrics with tracing off; 1: per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if err := validateDefs(endToEnd, perLayer); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	w, err := workloadByName(*name)
	if err != nil || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d)\n", *name, *seconds, *traced)
		return 2
	}
	logf := func(format string, a ...any) {
		msg := strings.TrimRight(fmt.Sprintf(format, a...), "\n")
		fmt.Fprintln(stdout, "# "+strings.ReplaceAll(msg, "\n", "\n# "))
	}
	profile, err := w.chaosProfile()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench: chaos profile:", err)
		return 2
	}
	r := &runner{
		w: w, seed: *seed, profile: profile, log: logf,
		deadline: time.Now().Add(time.Duration(*seconds * float64(time.Second))),
	}
	logf("workload %s seed %d seconds %g trace %d GOMAXPROCS %d nproc %d %s",
		w.name, *seed, *seconds, *traced, runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version())

	var got map[string]float64
	defs, nonzero := endToEnd, true
	if *traced == 0 {
		got, err = r.measureVirtual()
	} else {
		got, err = r.traced(*seconds)
		defs, nonzero = perLayer, false
		// The fleet and coordinator layers read 0 on the single-server
		// workloads, which do not exercise them.
		for _, d := range perLayer {
			if _, ok := got[d.Name]; !ok && err == nil {
				got[d.Name] = 0
			}
		}
	}
	res := result{Correct: err == nil, Attempted: r.ops.attempted, Failed: r.ops.failed}
	if err == nil {
		res.Metrics, err = collect(defs, got, nonzero)
		res.Correct = err == nil
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench: correctness check failed:", err)
		if res.Failed == 0 {
			res.Failed = 1
		}
	}
	if res.Attempted == 0 {
		res.Attempted = 1
	}
	for _, d := range defs {
		if v, ok := res.Metrics[d.Name]; ok {
			logf("%-40s %16.6g %s", d.Name, v.Value, d.Unit)
		}
	}
	line, jerr := json.Marshal(res)
	if jerr != nil {
		fmt.Fprintln(stderr, "perfbench:", jerr)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}
