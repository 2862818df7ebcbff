package fleet

import (
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/fleet/coord"
	"repro/internal/motion"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/trace"
)

// newTestLive builds a 2-shard live fleet with shared observability wired
// the way cmd/collabvr-fleet does it: one registry, one SLO monitor, one
// tracer across every shard.
func newTestLive(t *testing.T, reg *obs.Registry, slo *obs.SLOMonitor,
	tracer *trace.Tracer, rec *obs.PlacementRecorder) *Live {
	t.Helper()
	base := server.DefaultConfig(core.DVGreedy{})
	base.SlotDuration = 5 * time.Millisecond
	base.Metrics = reg
	base.SLO = slo
	base.Tracer = tracer
	base.Logf = t.Logf
	l, err := NewLive(LiveConfig{
		Shards:           2,
		Base:             base,
		GlobalBudgetMbps: 400,
		Recorder:         rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// TestLiveMigrationWelcomeResume is the migration round-trip: a real client
// streams from shard 0, the coordinator live-migrates it to shard 1, and
// the session survives — the client's redial lands on the adopting shard
// with Welcome{Resumed}, the shared SLO window keeps accumulating instead
// of resetting, post-migration traces still stitch server and client spans
// under one trace ID, and nothing leaks.
func TestLiveMigrationWelcomeResume(t *testing.T) {
	baseGoroutines := obs.LeakSnapshot()

	reg := obs.NewRegistry()
	slo := obs.NewSLOMonitor(obs.DefaultSLOConfig(), reg)
	exp := trace.NewExporter(trace.ExporterOptions{RingSize: 1 << 14, Sync: true})
	tracer := trace.New(trace.Options{Exporter: exp})
	rec := obs.NewPlacementRecorder(obs.PlacementRecorderOptions{RingSize: 32, Metrics: reg})

	l := newTestLive(t, reg, slo, tracer, rec)
	defer l.Close()

	const user = 7
	shard, err := l.Place(SessionInfo{ID: user})
	if err != nil {
		t.Fatal(err)
	}
	if shard != 0 {
		t.Fatalf("arrival placed on shard %d, want 0 (least-loaded, lowest index)", shard)
	}

	ccfg := client.DefaultConfig(user, l.ShardAddr(shard),
		motion.Generate(motion.Scenes()[0], user, 500, 200, 7))
	ccfg.SlotDuration = 5 * time.Millisecond
	ccfg.Slots = 300
	ccfg.Metrics = reg
	ccfg.Tracer = tracer
	ccfg.Reconnect = true
	ccfg.ReconnectAttempts = 8
	ccfg.ReconnectBase = 2 * time.Millisecond
	ccfg.ReconnectCap = 20 * time.Millisecond
	ccfg.Redirect = func() string { return l.Addr(user) }

	type outcome struct {
		res *client.Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := client.Run(ccfg)
		done <- outcome{res, err}
	}()

	if !l.Shard(0).WaitSession(user, 2*time.Second) {
		t.Fatal("session never admitted on shard 0")
	}

	// Let the session build some SLO window on the source shard first, so
	// continuity is observable: a reset window would have fewer slots after
	// migration than before.
	sloSlots := func() int {
		for _, s := range slo.Snapshot().Sessions {
			if s.Session == user {
				return s.Slots
			}
		}
		return 0
	}
	deadline := time.Now().Add(2 * time.Second)
	for sloSlots() < 40 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	slotsBefore := sloSlots()
	if slotsBefore < 40 {
		t.Fatalf("SLO window only %d slots before migration", slotsBefore)
	}

	migNs := time.Now().UnixNano()
	to, err := l.Migrate(user, obs.PlaceSLOPressure)
	if err != nil {
		t.Fatal(err)
	}
	if to != 1 {
		t.Fatalf("migrated to shard %d, want 1", to)
	}
	if !l.Shard(1).WaitSession(user, 2*time.Second) {
		t.Fatal("session never admitted on shard 1 after migration")
	}
	if got := l.Owner(user); got != 1 {
		t.Fatalf("Owner(%d) = %d after migration, want 1", user, got)
	}

	// SLO window continuity: the shared monitor was never retired for the
	// user, so the adopting shard kept filling the same window. Read it
	// while the session is live on shard 1: once the client finishes, the
	// adopting shard retires the session and its window with it.
	if after := sloSlots(); after < slotsBefore {
		t.Errorf("SLO window shrank across migration: %d -> %d slots", slotsBefore, after)
	}

	out := <-done
	if out.err != nil {
		t.Fatalf("client: %v", out.err)
	}
	if out.res.Reconnects < 1 {
		t.Errorf("Reconnects = %d, want >= 1 (migration closes the control conn)", out.res.Reconnects)
	}
	if out.res.Resumes < 1 {
		t.Errorf("Resumes = %d, want >= 1 (adopting shard must answer Welcome{Resumed})", out.res.Resumes)
	}
	if out.res.LastShard != to {
		t.Errorf("LastShard = %d, want %d", out.res.LastShard, to)
	}

	// Session state survived: the handoff counters fired on both sides.
	if got := reg.Counter("collabvr_server_sessions_handoff_out_total").Value(); got != 1 {
		t.Errorf("handoff_out_total = %d, want 1", got)
	}
	if got := reg.Counter("collabvr_server_sessions_handoff_in_total").Value(); got != 1 {
		t.Errorf("handoff_in_total = %d, want 1", got)
	}

	// Trace stitching after the handoff: some trace started after the
	// migration must carry both a server-side and a client-side span under
	// the same trace ID — the adopting shard's packets still stitch.
	spans := exp.Recent(1 << 14)
	serverAfter := make(map[uint64]bool)
	for _, s := range spans {
		if s.Side == trace.SideServer && s.User == user && s.StartNs > migNs {
			serverAfter[s.Trace] = true
		}
	}
	stitched := false
	for _, s := range spans {
		if s.Side == trace.SideClient && serverAfter[s.Trace] {
			stitched = true
			break
		}
	}
	if !stitched {
		t.Errorf("no post-migration trace ID carries both server and client spans (%d spans total)", len(spans))
	}

	// The migration decision is on the placement record with the source
	// excluded from candidates.
	recs := rec.Recent(32)
	var mig *obs.PlacementRecord
	for i := range recs {
		if recs[i].Reason == obs.PlaceSLOPressure {
			mig = &recs[i]
		}
	}
	if mig == nil {
		t.Fatal("no slo-pressure placement record")
	}
	if mig.From != 0 || mig.Chosen != 1 {
		t.Errorf("migration record from=%d chosen=%d, want 0 -> 1", mig.From, mig.Chosen)
	}

	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	obs.AssertNoLeaks(t, baseGoroutines)
}

// TestLiveKillShardReplacesOwners: a kill is a crash — no handoff state —
// but the coordinator must immediately re-own the dead shard's sessions so
// the clients' Redirect hooks resolve to survivors, and must stop placing
// arrivals there.
func TestLiveKillShardReplacesOwners(t *testing.T) {
	rec := obs.NewPlacementRecorder(obs.PlacementRecorderOptions{RingSize: 32})
	l := newTestLive(t, nil, nil, nil, rec)
	defer l.Close()

	for id := uint32(1); id <= 4; id++ {
		if _, err := l.Place(SessionInfo{ID: id}); err != nil {
			t.Fatal(err)
		}
	}
	// Least-loaded alternates 0,1,0,1: two sessions per shard.
	if l.Owner(1) != 0 || l.Owner(3) != 0 || l.Owner(2) != 1 || l.Owner(4) != 1 {
		t.Fatalf("unexpected ownership: %d %d %d %d", l.Owner(1), l.Owner(2), l.Owner(3), l.Owner(4))
	}

	if replaced := l.KillShard(0); replaced != 2 {
		t.Fatalf("KillShard replaced %d sessions, want 2", replaced)
	}
	for _, id := range []uint32{1, 2, 3, 4} {
		if got := l.Owner(id); got != 1 {
			t.Errorf("Owner(%d) = %d after kill, want 1", id, got)
		}
	}
	// The dead shard is out of the candidate set for new arrivals.
	if shard, err := l.Place(SessionInfo{ID: 9}); err != nil || shard != 1 {
		t.Errorf("Place after kill = (%d, %v), want shard 1", shard, err)
	}
	// Kill re-placements are recorded with the shard-kill reason.
	kills := 0
	for _, r := range rec.Recent(32) {
		if r.Reason == obs.PlaceShardKill {
			kills++
			if r.From != 0 {
				t.Errorf("shard-kill record From = %d, want 0", r.From)
			}
		}
	}
	if kills != 2 {
		t.Errorf("%d shard-kill records, want 2", kills)
	}
	// Addr for a killed-and-reowned session resolves to the survivor.
	if l.Addr(1) != l.ShardAddr(1) {
		t.Errorf("Addr(1) = %q, want survivor %q", l.Addr(1), l.ShardAddr(1))
	}
}

// TestLiveTickRebalance: demand skew must move budget. With every session
// owned by shard 0, the rebalance cadence shifts budget toward it while the
// floor keeps shard 1 alive.
func TestLiveTickRebalance(t *testing.T) {
	l := newTestLive(t, nil, nil, nil, nil)
	defer l.Close()

	const global = 400.0
	half := global / 2
	if b0, b1 := l.Shard(0).Budget(), l.Shard(1).Budget(); b0 != half || b1 != half {
		t.Fatalf("initial budgets = %v/%v, want equal halves", b0, b1)
	}

	for id := uint32(1); id <= 4; id++ {
		// Skew ownership without real connections.
		l.cluster.Propose(coord.Op{Kind: coord.OpPlace, Session: id, Shard: 0})
	}
	cadence := l.rb.cfg.EverySlots
	for slot := 1; slot <= cadence; slot++ {
		l.Tick(slot)
	}

	b0, b1 := l.Shard(0).Budget(), l.Shard(1).Budget()
	if b0 <= b1 {
		t.Errorf("budget after skewed rebalance: shard0=%v shard1=%v, want shard0 > shard1", b0, b1)
	}
	if sum := b0 + b1; sum < global-1e-6 || sum > global+1e-6 {
		t.Errorf("budgets sum to %v, want %v", sum, global)
	}
	floor := 0.25 * global / 2
	if b1 < floor-1e-9 {
		t.Errorf("shard1 budget %v below floor %v", b1, floor)
	}

	snap := l.Snapshot(8)
	if snap.Rebalances < 1 {
		t.Errorf("Snapshot.Rebalances = %d, want >= 1", snap.Rebalances)
	}
	if snap.GlobalBudgetMbps != global {
		t.Errorf("Snapshot.GlobalBudgetMbps = %v, want %v", snap.GlobalBudgetMbps, global)
	}
}
