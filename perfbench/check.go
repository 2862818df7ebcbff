package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"

	"repro/internal/load"
)

// fingerprint is the SHA-256 of the report's canonical JSON encoding.
// encoding/json writes struct fields in declaration order and formats
// floats deterministically, so two reports share a fingerprint exactly
// when every field is bit-identical. A NaN or Inf anywhere fails the
// encoding and so the run.
func fingerprint(report any) (string, error) {
	b, err := json.Marshal(report)
	if err != nil {
		return "", fmt.Errorf("fingerprint: %w", err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

func share(v float64) bool { return finite(v) && v >= 0 && v <= 1 }

// checkReport verifies the accounting invariants every engine report must
// hold: each spawned session either completed or failed, outcomes match
// the completion count, and every per-session figure is finite with its
// miss share in [0,1].
func checkReport(r *load.RunReport) error {
	if r.Spawned == 0 {
		return fmt.Errorf("report spawned no sessions")
	}
	if r.Completed+r.Failed != r.Spawned {
		return fmt.Errorf("completed %d + failed %d != spawned %d", r.Completed, r.Failed, r.Spawned)
	}
	if len(r.Outcomes) != r.Completed {
		return fmt.Errorf("%d outcomes for %d completed sessions", len(r.Outcomes), r.Completed)
	}
	for _, o := range r.Outcomes {
		for _, v := range []float64{o.QoE, o.Quality, o.DelayMs, o.Variance, o.Coverage, o.SetupMs} {
			if !finite(v) {
				return fmt.Errorf("session %d: non-finite outcome %+v", o.ID, o)
			}
		}
		if !share(o.MissFrac) {
			return fmt.Errorf("session %d: miss share %v outside [0,1]", o.ID, o.MissFrac)
		}
		if !share(o.Coverage) {
			return fmt.Errorf("session %d: coverage %v outside [0,1]", o.ID, o.Coverage)
		}
	}
	for i, q := range r.SlotQuality {
		if !finite(q) {
			return fmt.Errorf("slot %d: non-finite quality %v", i, q)
		}
	}
	if m := r.AggregateMissRate(); !share(m) {
		return fmt.Errorf("aggregate miss rate %v outside [0,1]", m)
	}
	return nil
}

// checkFleet adds the fleet invariants: placement accounting and a
// converged coordinator cluster.
func checkFleet(r *load.FleetReport) error {
	if err := checkReport(&r.RunReport); err != nil {
		return err
	}
	if r.PlacementsFailed > r.Failed {
		return fmt.Errorf("placements failed %d > sessions failed %d", r.PlacementsFailed, r.Failed)
	}
	if r.Placements+r.PlacementsFailed != r.Spawned {
		return fmt.Errorf("placements %d + failed %d != spawned %d", r.Placements, r.PlacementsFailed, r.Spawned)
	}
	if r.Coord == nil {
		return fmt.Errorf("fleet report has no coordinator outcome")
	}
	if !r.Coord.Converged {
		return fmt.Errorf("coordinator replicas did not converge: %+v", *r.Coord)
	}
	return nil
}

// outcomeTotals are the report-derived end-to-end figures.
type outcomeTotals struct {
	sessionSlots int
	qoeSum       float64
	sessions     int
	missedSlots  float64
	spawned      int
	failed       int
}

func (t *outcomeTotals) add(r *load.RunReport) {
	for _, o := range r.Outcomes {
		t.sessionSlots += o.Slots
		t.qoeSum += o.QoE
		t.missedSlots += o.MissFrac * float64(o.Slots)
	}
	t.sessions += len(r.Outcomes)
	t.spawned += r.Spawned
	t.failed += r.Failed
}

// fill writes qoe_mean, frames_missed_frac (slot-weighted, as
// RunReport.AggregateMissRate) and sessions_served_frac into m.
func (t *outcomeTotals) fill(m map[string]float64) {
	if t.sessions > 0 {
		m["qoe_mean"] = t.qoeSum / float64(t.sessions)
	}
	if t.sessionSlots > 0 {
		m["frames_missed_frac"] = t.missedSlots / float64(t.sessionSlots)
	}
	if t.spawned > 0 {
		m["sessions_served_frac"] = float64(t.spawned-t.failed) / float64(t.spawned)
	}
}

// sessionSlots counts the session-slots a report decided and accounted.
func sessionSlots(r *load.RunReport) int {
	n := 0
	for _, o := range r.Outcomes {
		n += o.Slots
	}
	return n
}
