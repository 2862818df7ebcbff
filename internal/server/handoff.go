package server

import (
	"errors"
	"fmt"
	"time"
)

// HandoffState is the portable snapshot of one session's server-side
// streaming state: everything the adopting shard needs to continue the
// session's QoE accounting and estimators instead of starting cold. The
// in-process fleet coordinator hands the struct over directly; all fields
// are plain values so an out-of-process coordinator could gob-ship it.
type HandoffState struct {
	User uint32
	// Token authenticates the handoff: derived from (user, slot, shard,
	// epoch) at export, it names the exact handoff event in logs on both
	// sides and fences out stale leaders — a deposed coordinator's epoch
	// no longer reproduces the token the adopting shard expects.
	Token uint64
	// FromShard is the exporting shard's ID.
	FromShard int
	// Slot is the exporting shard's slot clock at export time.
	Slot uint32
	// Epoch is the coordinator term the migration was decided under. A
	// shard that has witnessed a newer term rejects the adoption (see
	// AdoptSession), so a deposed leader cannot create split-brain
	// double-ownership. 0 in single-replica mode — fencing disabled.
	Epoch uint64

	// Streaming QoE state (drives MeanQ and delta of h_n).
	T          int
	SumViewedQ float64
	Covered    int

	// Throughput estimator state: the EMA value and the goodput max-filter
	// window feeding the capacity estimate.
	EstMbps    float64
	EMAPrimed  bool
	CapSamples []float64

	// Delay-regression samples (rate, delay) pairs.
	DelayRates []float64
	DelayMs    []float64
}

// HandoffToken derives the handoff event's identity with a splitmix64-style
// finalizer over (user, slot, shard, epoch) — deterministic per event,
// unique across shards and coordinator terms. The epoch mixes in as
// epoch×odd-constant, an identity at epoch 0, so single-replica
// deployments (term pinned to 0) produce bit-for-bit the tokens the
// pre-replication fleet did.
func HandoffToken(user uint32, slot uint32, shard int, epoch uint64) uint64 {
	z := uint64(user)<<32 | uint64(slot)
	z ^= (uint64(shard) + 1) * 0x9E3779B97F4A7C15
	z ^= epoch * 0xD6E8FEB86659FD93
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	if z == 0 {
		z = 1 // a zero token means "no handoff"
	}
	return z
}

// ExportSession snapshots a session's portable state for migration and
// marks it handed off; the session keeps streaming until ReleaseSession
// closes its control connection. The split lets the coordinator register
// the state on the adopting shard (AdoptSession) and repoint the client's
// Redirect hook before the source triggers the redial — otherwise the
// client's fresh Hello could race the adoption and resume cold. The
// session retires as a handoff — the shared SLO window and breaker state
// stay alive for the adopting shard.
func (s *Server) ExportSession(user uint32) (*HandoffState, error) {
	s.mu.Lock()
	sess := s.sessions[user]
	slot := s.slot
	epoch := s.coordEpoch
	s.mu.Unlock()
	if sess == nil {
		return nil, fmt.Errorf("server: export: no session for user %d", user)
	}

	sess.mu.Lock()
	if sess.retired {
		sess.mu.Unlock()
		return nil, fmt.Errorf("server: export: session %d already retired", user)
	}
	sess.handoff = true
	st := &HandoffState{
		User:       user,
		Token:      HandoffToken(user, slot, s.cfg.ShardID, epoch),
		FromShard:  s.cfg.ShardID,
		Slot:       slot,
		Epoch:      epoch,
		T:          sess.T,
		SumViewedQ: sess.SumViewedQ,
		Covered:    sess.Covered,
		EstMbps:    sess.ema.Value(),
		EMAPrimed:  sess.ema.Primed(),
		CapSamples: append([]float64(nil), sess.capSamples...),
		DelayRates: append([]float64(nil), sess.delayRates...),
		DelayMs:    append([]float64(nil), sess.delayMs...),
	}
	sess.mu.Unlock()

	s.cfg.Logf("server: exporting user %d at slot %d (token %016x)", user, slot, st.Token)
	return st, nil
}

// ReleaseSession completes an export: closing the control connection is the
// migration signal — the client's control reader redials (via its Redirect
// hook, which by now points at the adopting shard) and the control loop
// here exits into retireSession, which sees the handoff flag.
func (s *Server) ReleaseSession(user uint32) error {
	s.mu.Lock()
	sess := s.sessions[user]
	s.mu.Unlock()
	if sess == nil {
		return fmt.Errorf("server: release: no session for user %d", user)
	}
	sess.ctrl.Close()
	sess.closeSend()
	return nil
}

// AdoptSession registers handed-off session state; the next Hello for its
// user (the migrating client's redial) consumes it, resumes the estimators
// and QoE history, and answers Welcome{Resumed: true}.
//
// The adoption is epoch-fenced: state stamped by a coordinator term older
// than the newest this shard has witnessed, or carrying a token that does
// not reproduce from its own (user, slot, shard, epoch), is the replay of
// a deposed leader — it is rejected and counted in
// collabvr_fleet_coord_fenced_total rather than creating a second owner
// for a session the new leader has already re-placed.
func (s *Server) AdoptSession(st *HandoffState) error {
	if st == nil || st.Token == 0 {
		return errors.New("server: adopt: missing handoff state or token")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errors.New("server: adopt: server closed")
	}
	if s.draining {
		return errors.New("server: adopt: server draining")
	}
	if st.Epoch < s.coordEpoch {
		s.metrics.coordFenced.Inc()
		return fmt.Errorf("server: adopt: %w: state epoch %d < shard epoch %d",
			ErrStaleEpoch, st.Epoch, s.coordEpoch)
	}
	if st.Token != HandoffToken(st.User, st.Slot, st.FromShard, st.Epoch) {
		s.metrics.coordFenced.Inc()
		return fmt.Errorf("server: adopt: %w: token %016x does not match its handoff event",
			ErrStaleEpoch, st.Token)
	}
	if st.Epoch > s.coordEpoch {
		s.coordEpoch = st.Epoch // adoption itself proves the newer term
	}
	if s.adopted == nil {
		s.adopted = make(map[uint32]*HandoffState)
	}
	s.adopted[st.User] = st
	return nil
}

// ErrStaleEpoch marks an adoption fenced out because its handoff state was
// stamped under a deposed coordinator leader's term.
var ErrStaleEpoch = errors.New("stale coordinator epoch")

// SetCoordEpoch advances the shard's witnessed coordinator term. It is
// monotonic — a lower value is ignored — so a delayed broadcast from an
// old leader cannot lower the fence.
func (s *Server) SetCoordEpoch(epoch uint64) {
	s.mu.Lock()
	if epoch > s.coordEpoch {
		s.coordEpoch = epoch
	}
	s.mu.Unlock()
}

// CoordEpoch returns the highest coordinator term the shard has witnessed.
func (s *Server) CoordEpoch() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.coordEpoch
}

// CancelExport rolls back an ExportSession whose migration fell through
// (the adopting shard refused the state, or the ownership flip could not
// commit): the handoff flag clears, so the session keeps streaming on this
// shard and will retire as a normal departure, not a handoff.
func (s *Server) CancelExport(user uint32) error {
	s.mu.Lock()
	sess := s.sessions[user]
	s.mu.Unlock()
	if sess == nil {
		return fmt.Errorf("server: cancel export: no session for user %d", user)
	}
	sess.mu.Lock()
	sess.handoff = false
	sess.mu.Unlock()
	return nil
}

// DropAdopted discards handed-off state registered for the user before any
// redial consumed it — the undo of AdoptSession when a later step of the
// migration fails. It reports whether state was pending.
func (s *Server) DropAdopted(user uint32) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.adopted[user]; !ok {
		return false
	}
	delete(s.adopted, user)
	return true
}

// resume seeds a fresh session from handed-off state.
func (sess *session) resume(st *HandoffState) {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	sess.T = st.T
	sess.SumViewedQ = st.SumViewedQ
	sess.Covered = st.Covered
	if st.EMAPrimed && st.EstMbps > 0 {
		// The EMA's first Update adopts the sample directly, so the
		// estimate continues exactly where the exporting shard left it.
		sess.ema.Update(st.EstMbps)
	}
	n := len(st.CapSamples)
	if n > capWindow {
		n = capWindow
	}
	sess.capSamples = append(sess.capSamples[:0], st.CapSamples[:n]...)
	sess.capIdx = 0
	nd := len(st.DelayRates)
	if len(st.DelayMs) < nd {
		nd = len(st.DelayMs)
	}
	if nd > maxDelaySamples {
		nd = maxDelaySamples
	}
	sess.delayRates = append([]float64(nil), st.DelayRates[:nd]...)
	sess.delayMs = append([]float64(nil), st.DelayMs[:nd]...)
}

// SetBudget moves the server's live bandwidth budget B(t); a fleet
// coordinator calls it on every rebalance. Non-positive values are ignored
// (a shard is killed by migration, not by a zero budget).
func (s *Server) SetBudget(mbps float64) {
	if mbps <= 0 {
		return
	}
	s.mu.Lock()
	s.budget = mbps
	s.mu.Unlock()
}

// Budget returns the live value of B(t).
func (s *Server) Budget() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.budget
}

// SessionCount returns the number of admitted sessions.
func (s *Server) SessionCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.sessions)
}

// ShardID returns the configured shard identity.
func (s *Server) ShardID() int { return s.cfg.ShardID }

// Draining reports whether Drain has begun.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Sessions returns the IDs of the admitted sessions in ascending order —
// the deterministic iteration a fleet coordinator migrates in.
func (s *Server) Sessions() []uint32 {
	s.mu.Lock()
	out := make([]uint32, 0, len(s.sessions))
	for id := range s.sessions {
		out = append(out, id)
	}
	s.mu.Unlock()
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// WaitSession blocks until the user has an admitted, unretired session or
// the timeout elapses; fleet migration uses it to confirm the client's
// redial landed on the adopting shard.
func (s *Server) WaitSession(user uint32, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for {
		s.mu.Lock()
		_, ok := s.sessions[user]
		s.mu.Unlock()
		if ok {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(2 * time.Millisecond)
	}
}
