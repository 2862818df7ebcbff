package main

// The -allocator mode: a microbenchmark of the per-slot Algorithm 1 engine
// (the heap Solver) against the original reference scan it is tested
// against, on lowered slot problems at several user counts, written as one
// JSON report so CI and EXPERIMENTS.md have a machine-readable baseline.

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/knapsack"
	"repro/internal/rng"
)

type allocBenchRow struct {
	Name         string  `json:"name"`
	NUsers       int     `json:"n_users"`
	NsPerOp      float64 `json:"ns_per_op"`
	AllocsPerOp  int64   `json:"allocs_per_op"`
	BytesPerOp   int64   `json:"bytes_per_op"`
	SolvesPerSec float64 `json:"solves_per_sec"`
}

type allocBenchReport struct {
	Comment   string          `json:"comment"`
	GoVersion string          `json:"go_version"`
	GOOS      string          `json:"goos"`
	GOARCH    string          `json:"goarch"`
	Date      string          `json:"date"`
	Rows      []allocBenchRow `json:"rows"`
}

// allocBenchProblem builds one lowered slot instance with n users on the
// content rate ladder, via the same core.LowerProblem path the server uses.
func allocBenchProblem(rng *rand.Rand, params core.Params, n int) *knapsack.Problem {
	ladder := []float64{8, 13, 21, 34, 55, 89}
	users := make([]core.UserInput, n)
	for i := range users {
		scale := 0.6 + rng.Float64()
		rates := make([]float64, params.Levels)
		delays := make([]float64, params.Levels)
		for q := range rates {
			rates[q] = ladder[q%len(ladder)] * scale
			delays[q] = rates[q] / 40 * (2 + rng.Float64())
		}
		users[i] = core.UserInput{
			Rate:  rates,
			Delay: delays,
			Delta: 0.5 + rng.Float64()*0.5,
			MeanQ: rng.Float64() * 6,
			Cap:   20 + rng.Float64()*80,
		}
	}
	p := &core.SlotProblem{T: 1 + rng.Intn(500), Budget: 36 * float64(n), Users: users}
	return core.LowerProblem(params, p)
}

func allocBenchRowFrom(name string, n int, r testing.BenchmarkResult) allocBenchRow {
	ns := float64(r.NsPerOp())
	row := allocBenchRow{
		Name:        name,
		NUsers:      n,
		NsPerOp:     ns,
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
	}
	if ns > 0 {
		row.SolvesPerSec = 1e9 / ns
	}
	return row
}

// runAllocatorBench executes the allocator microbenchmarks and writes the
// JSON report to outPath.
func runAllocatorBench(seed int64, outPath string) error {
	params := core.DefaultSimParams()
	sizes := []int{5, 30, 200, 1000}
	report := allocBenchReport{
		Comment: "per-slot allocator microbenchmark; solver = heap-based incremental greedy, " +
			"reference = original rescan greedy",
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		Date:      time.Now().UTC().Format(time.RFC3339),
	}

	for _, n := range sizes {
		p := allocBenchProblem(rng.New(seed+int64(n)), params, n)

		var s knapsack.Solver
		s.Combined(p) // warm the scratch: steady state is what the server sees
		solver := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s.Combined(p)
			}
		})
		report.Rows = append(report.Rows, allocBenchRowFrom("solver", n, solver))

		reference := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p.ReferenceCombined()
			}
		})
		report.Rows = append(report.Rows, allocBenchRowFrom("reference", n, reference))
	}

	raw, err := json.MarshalIndent(&report, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(outPath, append(raw, '\n'), 0o644); err != nil {
		return err
	}

	fmt.Printf("# Allocator microbenchmark (%s %s/%s)\n", report.GoVersion, report.GOOS, report.GOARCH)
	fmt.Printf("%-10s %8s %14s %12s %12s %14s\n",
		"engine", "users", "ns/op", "allocs/op", "bytes/op", "solves/sec")
	for _, row := range report.Rows {
		fmt.Printf("%-10s %8d %14.0f %12d %12d %14.0f\n",
			row.Name, row.NUsers, row.NsPerOp, row.AllocsPerOp, row.BytesPerOp, row.SolvesPerSec)
	}
	fmt.Printf("# report written to %s\n", outPath)
	return nil
}
