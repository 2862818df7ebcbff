package main

// The -slotloop mode: benchmarks of the slot-loop fast paths — the sharded
// virtual-time campaign against the serial engine, and the batched UDP
// sender against per-tile sends — written as one JSON report
// (BENCH_slotloop.json). The -slotloop-smoke mode is the fast
// differential: a 10k-session campaign must be bit-identical across serial
// and sharded runs.

import (
	"encoding/json"
	"fmt"
	"net"
	"os"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/load"
	"repro/internal/tiles"
	"repro/internal/transport"
)

type slotloopRow struct {
	Name string `json:"name"`
	// N is the problem scale: sessions for the sim row, tiles per flush
	// for the sender row.
	N           int     `json:"n"`
	Slots       int     `json:"slots,omitempty"`
	BaselineNs  float64 `json:"baseline_ns_per_op"`
	OptimizedNs float64 `json:"optimized_ns_per_op"`
	Speedup     float64 `json:"speedup"`
	Note        string  `json:"note,omitempty"`
}

type slotloopReport struct {
	Comment   string        `json:"comment"`
	GoVersion string        `json:"go_version"`
	GOOS      string        `json:"goos"`
	GOARCH    string        `json:"goarch"`
	NumCPU    int           `json:"num_cpu"`
	Date      string        `json:"date"`
	Rows      []slotloopRow `json:"rows"`
}

// slotloopWorkload is the shared 10k-session churn campaign used by both
// the sim benchmark row and the smoke differential.
func slotloopWorkload(seed int64, sessions, horizon int) (*load.Workload, error) {
	return load.Generate(load.Config{
		Shape:          load.Poisson,
		Seed:           seed,
		HorizonSlots:   horizon,
		SlotsPerSecond: 60,
		Sessions:       sessions,
		RatePerSec:     1.25 * float64(sessions) * 60 / float64(horizon),
		MeanHoldSec:    0.8,
	})
}

// benchSimSharded times the 10k-session virtual-time campaign serial vs
// sharded across GOMAXPROCS workers. On a single-core host this is honest
// about being ~1x — the sharded path's value there is that it costs
// nothing.
func benchSimSharded(seed int64, sessions, horizon int) (slotloopRow, error) {
	w, err := slotloopWorkload(seed, sessions, horizon)
	if err != nil {
		return slotloopRow{}, err
	}
	run := func(workers int) (float64, *load.RunReport, error) {
		start := time.Now()
		rep, err := load.Simulate(w, load.SimConfig{Workers: workers})
		return float64(time.Since(start).Nanoseconds()), rep, err
	}
	serialNs, serialRep, err := run(1)
	if err != nil {
		return slotloopRow{}, err
	}
	shardedNs, shardedRep, err := run(runtime.GOMAXPROCS(0))
	if err != nil {
		return slotloopRow{}, err
	}
	if !reflect.DeepEqual(serialRep, shardedRep) {
		return slotloopRow{}, fmt.Errorf("sharded campaign diverged from serial at %d sessions", sessions)
	}
	row := slotloopRow{
		Name:        "sim_sharded_vs_serial",
		N:           len(w.Sessions),
		Slots:       horizon,
		BaselineNs:  serialNs,
		OptimizedNs: shardedNs,
		Note: fmt.Sprintf("whole-campaign wall time, build phase sharded across %d workers; bit-identical reports verified",
			runtime.GOMAXPROCS(0)),
	}
	if row.OptimizedNs > 0 {
		row.Speedup = row.BaselineNs / row.OptimizedNs
	}
	return row, nil
}

// discardConn is a net.PacketConn that swallows writes, so the sender
// benchmark measures encode+syscall-shaped work without a peer.
type discardConn struct{}

func (discardConn) ReadFrom(p []byte) (int, net.Addr, error)  { return 0, nil, net.ErrClosed }
func (discardConn) WriteTo(p []byte, _ net.Addr) (int, error) { return len(p), nil }
func (discardConn) Close() error                              { return nil }
func (discardConn) LocalAddr() net.Addr                       { return &net.UDPAddr{} }
func (discardConn) SetDeadline(time.Time) error               { return nil }
func (discardConn) SetReadDeadline(time.Time) error           { return nil }
func (discardConn) SetWriteDeadline(time.Time) error          { return nil }

// benchSenderBatch measures ns/tile for per-tile sends (batch size 1)
// against coalesced flushes of `batch` tiles per slot boundary.
func benchSenderBatch(batch, payloadBytes int) slotloopRow {
	payload := make([]byte, payloadBytes)
	dst := &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 9}
	run := func(size int) float64 {
		s := transport.NewSender(discardConn{}, dst, nil, transport.DefaultMTU)
		s.SetBatchSize(size)
		r := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for t := 0; t < batch; t++ {
					if err := s.QueueTile(1, uint32(i), tiles.VideoID(t), payload); err != nil {
						b.Fatal(err)
					}
				}
				if err := s.Flush(); err != nil {
					b.Fatal(err)
				}
			}
		})
		return float64(r.NsPerOp()) / float64(batch)
	}
	row := slotloopRow{
		Name:        "sender_batch_vs_single",
		N:           batch,
		BaselineNs:  run(1),
		OptimizedNs: run(batch),
		Note:        fmt.Sprintf("ns per %dB tile on a discard conn, %d tiles per slot flush", payloadBytes, batch),
	}
	if row.OptimizedNs > 0 {
		row.Speedup = row.BaselineNs / row.OptimizedNs
	}
	return row
}

// runSlotloopBench executes the slot-loop benchmarks and writes the JSON
// report to outPath.
func runSlotloopBench(seed int64, outPath string) error {
	report := slotloopReport{
		Comment: "slot-loop fast paths: sharded vs serial virtual-time campaign, " +
			"batched vs per-tile UDP send",
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		NumCPU:    runtime.NumCPU(),
		Date:      time.Now().UTC().Format(time.RFC3339),
	}

	simRow, err := benchSimSharded(seed, 10_000, 1200)
	if err != nil {
		return err
	}
	report.Rows = append(report.Rows, simRow)
	report.Rows = append(report.Rows, benchSenderBatch(32, 1200))

	raw, err := json.MarshalIndent(&report, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(outPath, append(raw, '\n'), 0o644); err != nil {
		return err
	}

	fmt.Printf("# Slot-loop benchmark (%s %s/%s, %d cpu)\n",
		report.GoVersion, report.GOOS, report.GOARCH, report.NumCPU)
	fmt.Printf("%-24s %8s %14s %14s %9s\n", "path", "n", "baseline", "optimized", "speedup")
	for _, row := range report.Rows {
		fmt.Printf("%-24s %8d %12.0fns %12.0fns %8.2fx\n",
			row.Name, row.N, row.BaselineNs, row.OptimizedNs, row.Speedup)
	}
	fmt.Printf("# report written to %s\n", outPath)
	return nil
}

// runSlotloopSmoke is the CI differential: a 10k-session churn campaign
// must produce bit-identical reports from the serial engine and the
// sharded build.
func runSlotloopSmoke(seed int64) error {
	w, err := slotloopWorkload(seed, 10_000, 1200)
	if err != nil {
		return err
	}
	fmt.Printf("# slotloop smoke: %d sessions, %d slots, peak %d concurrent\n",
		len(w.Sessions), 1200, w.PeakConcurrent())
	base, err := load.Simulate(w, load.SimConfig{Workers: 1})
	if err != nil {
		return err
	}
	rep, err := load.Simulate(w, load.SimConfig{Workers: 4})
	if err != nil {
		return err
	}
	if !reflect.DeepEqual(base, rep) {
		return fmt.Errorf("sharded campaign diverged from serial baseline")
	}
	fmt.Printf("# sharded matches serial baseline (%d sessions completed)\n", rep.Completed)
	fmt.Println("slotloop equivalence: OK")
	return nil
}
