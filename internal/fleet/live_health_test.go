package fleet

import (
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/fleet/coord"
	"repro/internal/motion"
	"repro/internal/obs"
	"repro/internal/obs/tsdb"
	"repro/internal/server"
)

// TestLiveMigrationUnderHealthSampler is the health-plane twin of the
// Welcome-resume round-trip: a real client streams from shard 0 while the
// coordinator ticks and a health sampler folds the shared registry + SLO
// monitor into the same time-series store the coordinator's fleet series
// land in. The session is live-migrated under the SLO-pressure reason and
// the test asserts (a) the shared SLO window keeps accumulating across the
// handoff, (b) the store holds both sampler-fed and coordinator-fed series,
// (c) /debug/fleet ring accounting matches the recorder, and (d) nothing
// leaks once the fleet closes.
func TestLiveMigrationUnderHealthSampler(t *testing.T) {
	baseGoroutines := obs.LeakSnapshot()

	reg := obs.NewRegistry()
	slo := obs.NewSLOMonitor(obs.DefaultSLOConfig(), reg)
	rec := obs.NewPlacementRecorder(obs.PlacementRecorderOptions{RingSize: 32, Metrics: reg})
	store := tsdb.New(tsdb.Options{})
	sampler := tsdb.NewSampler(tsdb.SamplerOptions{Store: store, Registry: reg, SLO: slo})

	l := newTestLive(t, reg, slo, nil, rec)
	defer l.Close()
	// Route the coordinator's fleet series into the same store the sampler
	// writes, like cmd/collabvr-fleet does: one /debug/health document.
	l.health = store
	l.hseries = make([]liveShardSeries, l.Shards())
	for i := 0; i < l.Shards(); i++ {
		l.hseries[i] = liveShardSeries{
			sessions: store.ShardSeries("fleet_shard_sessions", tsdb.Gauge, i),
			budget:   store.ShardSeries("fleet_shard_budget_mbps", tsdb.Gauge, i),
			demand:   store.ShardSeries("fleet_shard_demand_mbps", tsdb.Gauge, i),
			pageFrac: store.ShardSeries("fleet_shard_page_frac", tsdb.Gauge, i),
		}
	}
	l.hFleetSess = store.Series("fleet_active_sessions", tsdb.Gauge)
	l.hEvacTotal = store.Series("fleet_evacuations_total", tsdb.Counter)

	const user = 11
	shard, err := l.Place(SessionInfo{ID: user})
	if err != nil {
		t.Fatal(err)
	}
	if shard != 0 {
		t.Fatalf("arrival placed on shard %d, want 0", shard)
	}

	ccfg := client.DefaultConfig(user, l.ShardAddr(shard),
		motion.Generate(motion.Scenes()[0], user, 500, 200, 11))
	ccfg.SlotDuration = 5 * time.Millisecond
	ccfg.Slots = 300
	ccfg.Metrics = reg
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

	// Tick + sample on one clock while the SLO window fills on the source
	// shard. The sampler is driven from this goroutine only (it is not
	// concurrency-safe), exactly how a coordinator main loop runs it.
	sloSlots := func() int {
		for _, s := range slo.Snapshot().Sessions {
			if s.Session == user {
				return s.Slots
			}
		}
		return 0
	}
	slot := 0
	tick := func() {
		slot++
		l.Tick(slot)
		sampler.Sample(int64(slot))
	}
	deadline := time.Now().Add(2 * time.Second)
	for sloSlots() < 40 && time.Now().Before(deadline) {
		tick()
		time.Sleep(5 * time.Millisecond)
	}
	slotsBefore := sloSlots()
	if slotsBefore < 40 {
		t.Fatalf("SLO window only %d slots before migration", slotsBefore)
	}

	to, err := l.Migrate(user, obs.PlaceSLOPressure)
	if err != nil {
		t.Fatal(err)
	}
	if !l.Shard(to).WaitSession(user, 2*time.Second) {
		t.Fatalf("session never admitted on shard %d after migration", to)
	}
	for i := 0; i < 20; i++ {
		tick()
		time.Sleep(5 * time.Millisecond)
	}
	// Read the window now, while the session is live on shard `to`: once the
	// client exits, the adopting shard retires the session and
	// SLOMonitor.Retire drops its window by design.
	slotsAfter := sloSlots()

	out := <-done
	if out.err != nil {
		t.Fatalf("client: %v", out.err)
	}
	if out.res.Resumes < 1 {
		t.Errorf("Resumes = %d, want >= 1 (Welcome{Resumed} across the handoff)", out.res.Resumes)
	}

	// (a) SLO continuity: the shared monitor kept the window across shards.
	if slotsAfter < slotsBefore {
		t.Errorf("SLO window shrank across migration: %d -> %d slots", slotsBefore, slotsAfter)
	}

	// (b) One store carries both planes: sampler-fed SLO totals and
	// coordinator-fed fleet series.
	names := map[string]bool{}
	for _, snap := range store.Snapshot() {
		names[snap.Name] = true
	}
	for _, want := range []string{
		"collabvr_slo_sessions_ok", "fleet_shard_sessions", "fleet_active_sessions",
	} {
		if !names[want] {
			t.Errorf("health store missing series %q", want)
		}
	}

	// (c) Ring accounting parity between the snapshot and the recorder.
	snap := l.Snapshot(8)
	if snap.RingCapacity != rec.RingCapacity() || snap.RingDropped != rec.Dropped() {
		t.Errorf("snapshot ring accounting (%d, %d) != recorder (%d, %d)",
			snap.RingCapacity, snap.RingDropped, rec.RingCapacity(), rec.Dropped())
	}
	if snap.RingCapacity != 32 {
		t.Errorf("RingCapacity = %d, want 32", snap.RingCapacity)
	}

	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	obs.AssertNoLeaks(t, baseGoroutines)
}

// TestLiveEvacuationTrigger drives the coordinator's evacuation loop without
// real traffic: fake-owned sessions are fed forced SLO misses until the
// shard's windowed page fraction latches the controller, and the Tick loop
// must then attempt SLO-pressure migrations (visible on the placement
// record) — gated by MinSamples, so early ticks must NOT fire.
func TestLiveEvacuationTrigger(t *testing.T) {
	reg := obs.NewRegistry()
	slo := obs.NewSLOMonitor(obs.SLOConfig{WindowSlots: 40, ShortWindowSlots: 10}, reg)
	rec := obs.NewPlacementRecorder(obs.PlacementRecorderOptions{RingSize: 64})

	base := server.DefaultConfig(core.DVGreedy{})
	base.SlotDuration = 5 * time.Millisecond
	base.Metrics = reg
	base.SLO = slo
	base.Logf = t.Logf
	l, err := NewLive(LiveConfig{
		Shards:           2,
		Base:             base,
		GlobalBudgetMbps: 400,
		Recorder:         rec,
		Evac: EvacConfig{
			Enabled:       true,
			WindowSlots:   20,
			EnterPressure: 0.5,
			CooldownSlots: 10,
			BatchSessions: 1,
			MinSamples:    10,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if l.Health() == nil {
		t.Fatal("evac-enabled fleet has no health store")
	}

	// Fake ownership: both sessions on shard 0, paging hard.
	l.mu.Lock()
	l.cluster.Propose(coord.Op{Kind: coord.OpPlace, Session: 1, Shard: 0})
	l.cluster.Propose(coord.Op{Kind: coord.OpPlace, Session: 2, Shard: 0})
	l.mu.Unlock()
	for i := 0; i < 50; i++ {
		slo.ObserveSlot(1, false, 0)
		slo.ObserveSlot(2, false, 0)
	}

	evacAttempts := func() int {
		n := 0
		for _, r := range rec.Recent(64) {
			if r.Reason == obs.PlaceSLOPressure {
				n++
			}
		}
		return n
	}

	// Below MinSamples the controller must stay quiet even at pressure 1.
	for slot := 1; slot <= 5; slot++ {
		l.Tick(slot)
	}
	if got := evacAttempts(); got != 0 {
		t.Fatalf("%d evacuation attempts before MinSamples ticks", got)
	}

	for slot := 6; slot <= 30; slot++ {
		l.Tick(slot)
	}
	if got := evacAttempts(); got == 0 {
		t.Fatal("no evacuation attempts despite a fully-paging shard")
	}
	// The fake sessions do not exist on the servers, so Migrate fails after
	// the placement decision: attempts are recorded, nothing is counted as
	// moved.
	if l.Evacuations() != 0 {
		t.Errorf("Evacuations = %d for unmigratable fake sessions, want 0", l.Evacuations())
	}
	// Cooldown spacing: consecutive attempt slots from shard 0 are >= 10 apart.
	last := -100
	for _, r := range rec.Recent(64) {
		if r.Reason != obs.PlaceSLOPressure {
			continue
		}
		if r.Slot-last < 10 && last >= 0 {
			t.Errorf("evacuation batches %d and %d inside one cooldown window", last, r.Slot)
		}
		last = r.Slot
	}
}
