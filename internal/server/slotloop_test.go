package server

import (
	"math"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/estimate"
	"repro/internal/motion"
	"repro/internal/obs"
	"repro/internal/tiles"
	"repro/internal/transport"
	"repro/internal/vrmath"
)

func TestSlotPoolForEachCoversAll(t *testing.T) {
	p := newSlotPool(4)
	defer p.Close()
	var hits [1000]int32
	p.forEach(len(hits), func(i int) { atomic.AddInt32(&hits[i], 1) })
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("index %d ran %d times, want exactly once", i, h)
		}
	}
	// Jobs too small to split run inline on the caller.
	var small [3]int32
	p.forEach(len(small), func(i int) { atomic.AddInt32(&small[i], 1) })
	for i, h := range small {
		if h != 1 {
			t.Fatalf("small index %d ran %d times", i, h)
		}
	}
	// A nil or serial pool degenerates to a plain loop.
	var nilPool *slotPool
	ran := 0
	nilPool.forEach(5, func(int) { ran++ })
	if ran != 5 {
		t.Fatalf("nil pool ran %d of 5", ran)
	}
}

func TestSlotPoolPanicPropagates(t *testing.T) {
	p := newSlotPool(4)
	defer p.Close()
	caught := func() (r any) {
		defer func() { r = recover() }()
		p.forEach(64, func(i int) {
			if i == 37 {
				panic("boom at 37")
			}
		})
		return nil
	}()
	pp, ok := caught.(poolPanic)
	if !ok {
		t.Fatalf("recovered %T (%v), want poolPanic", caught, caught)
	}
	if pp.value != "boom at 37" || len(pp.stack) == 0 {
		t.Fatalf("poolPanic = %+v, want original value and a stack", pp)
	}
	// The pool survives a panicked run: the next forEach still works.
	var n int32
	p.forEach(64, func(int) { atomic.AddInt32(&n, 1) })
	if n != 64 {
		t.Fatalf("post-panic forEach ran %d of 64", n)
	}

	// Serial pools propagate the panic natively (no wrapping).
	sp := newSlotPool(1)
	defer sp.Close()
	serial := func() (r any) {
		defer func() { r = recover() }()
		sp.forEach(4, func(i int) { panic("serial boom") })
		return nil
	}()
	if serial != "serial boom" {
		t.Fatalf("serial panic = %v, want raw value", serial)
	}
}

func TestSlotPoolCloseIdempotent(t *testing.T) {
	p := newSlotPool(3)
	p.Close()
	p.Close()
	var nilPool *slotPool
	nilPool.Close()
}

// bareSession builds a session directly (no network) for driving runSlot.
func bareSession(srv *Server, user uint32, pose vrmath.Pose, queue int) *session {
	sess := &session{
		user:      user,
		predictor: motion.NewPredictor(srv.cfg.PredictorWindow),
		ledger:    tiles.NewDeliveryLedger(),
		ema:       estimate.NewEMA(srv.cfg.EMAAlpha),
		allocated: make(map[uint32]allocRecord),
		sendCh:    make(chan []tileJob, queue),
		free:      srv.free,
		pose:      pose,
		havePose:  true,
	}
	sess.predictor.Observe(pose)
	return sess
}

// stoppedServer builds a server whose slot clock has already finished, so
// tests can drive runSlot directly without racing the ticker.
func stoppedServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	cfg.TotalSlots = 1
	cfg.SlotDuration = time.Millisecond
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	select {
	case <-srv.Done():
	case <-time.After(2 * time.Second):
		t.Fatal("slot clock did not stop")
	}
	return srv
}

// churnSessions builds a deterministic, diverse session population: a
// stable sorted user order with some sessions poseless, some with primed
// throughput estimates and some with enough delay history to engage the
// regression path.
func churnSessions(srv *Server, n int) []*session {
	sessions := make([]*session, 0, n)
	for u := 1; u <= n; u++ {
		pose := vrmath.Pose{
			Pos: vrmath.Vec3{X: float64(u) * 0.3, Z: float64(u % 7)},
			Yaw: float64((u*37)%360) - 180,
		}
		sess := bareSession(srv, uint32(u), pose, 8)
		if u%5 == 0 {
			sess.havePose = false
		}
		if u%3 == 0 {
			sess.ema.Update(20 + float64(u))
		}
		if u%4 == 0 {
			for k := 0; k < 16; k++ {
				r := float64(2*k) + float64(u%5)
				sess.delayRates = append(sess.delayRates, r)
				sess.delayMs = append(sess.delayMs, 0.01*r*r+0.4)
			}
		}
		sessions = append(sessions, sess)
	}
	return sessions
}

// sessionOutcome is the per-user decision trail of a runSlot sequence.
type sessionOutcome struct {
	levels  []int
	rates   []float64
	sent    int
	skipped int
}

func runSlotSequence(t *testing.T, workers, users, slots int) map[uint32]sessionOutcome {
	t.Helper()
	cfg := DefaultConfig(core.NewSolverAllocator())
	cfg.SlotWorkers = workers
	srv := stoppedServer(t, cfg)
	sessions := churnSessions(srv, users)
	for k := 0; k < slots; k++ {
		srv.runSlot(uint32(k), sessions, cfg.BudgetMbps)
	}
	out := make(map[uint32]sessionOutcome, users)
	for _, sess := range sessions {
		sess.mu.Lock()
		o := sessionOutcome{sent: sess.tilesSent, skipped: sess.tilesSkipped}
		for k := 0; k < slots; k++ {
			if rec, ok := sess.allocated[uint32(k)]; ok {
				o.levels = append(o.levels, rec.level)
				o.rates = append(o.rates, rec.rate)
			} else {
				o.levels = append(o.levels, -1)
				o.rates = append(o.rates, -1)
			}
		}
		sess.mu.Unlock()
		out[sess.user] = o
	}
	return out
}

// TestRunSlotShardedMatchesSerial is the sharded-pipeline differential:
// the same session population decided by a serial slot loop and by a
// 4-way sharded one must produce bit-identical levels and admitted rates
// for every user and slot.
func TestRunSlotShardedMatchesSerial(t *testing.T) {
	const users, slots = 40, 6
	serial := runSlotSequence(t, 1, users, slots)
	sharded := runSlotSequence(t, 4, users, slots)
	if len(serial) != len(sharded) {
		t.Fatalf("user counts differ: %d vs %d", len(serial), len(sharded))
	}
	for user, a := range serial {
		b, ok := sharded[user]
		if !ok {
			t.Fatalf("user %d missing from sharded run", user)
		}
		if a.sent != b.sent || a.skipped != b.skipped {
			t.Errorf("user %d: sent/skipped %d/%d (serial) vs %d/%d (sharded)",
				user, a.sent, a.skipped, b.sent, b.skipped)
		}
		for k := 0; k < slots; k++ {
			if a.levels[k] != b.levels[k] {
				t.Errorf("user %d slot %d: level %d (serial) vs %d (sharded)",
					user, k, a.levels[k], b.levels[k])
			}
			if math.Float64bits(a.rates[k]) != math.Float64bits(b.rates[k]) {
				t.Errorf("user %d slot %d: rate %v (serial) vs %v (sharded)",
					user, k, a.rates[k], b.rates[k])
			}
		}
	}
}

// TestRunSlotSteadyStateAllocs gates the hot path: with observability
// disabled (nil Metrics/Recorder/Tracer) and a shared solver allocator, a
// steady-state slot must not allocate at all — scratch buffers, the batch
// free list and the solver's reused heap and lowering scratch absorb
// everything.
func TestRunSlotSteadyStateAllocs(t *testing.T) {
	cfg := DefaultConfig(core.NewSolverAllocator())
	cfg.SlotWorkers = 1
	srv := stoppedServer(t, cfg)

	sessions := make([]*session, 0, 8)
	for u := 1; u <= 8; u++ {
		pose := vrmath.Pose{Pos: vrmath.Vec3{X: float64(u), Z: 2}, Yaw: float64(u * 20)}
		sess := bareSession(srv, uint32(u), pose, 1)
		if u%3 == 0 {
			// Enough history to engage the regression branch of the delay
			// table, which must also be allocation-free.
			for k := 0; k < 16; k++ {
				r := float64(2 * k)
				sess.delayRates = append(sess.delayRates, r)
				sess.delayMs = append(sess.delayMs, 0.02*r*r+0.3)
			}
		}
		sessions = append(sessions, sess)
	}

	// A fixed slot number keeps the allocation-record map at size one.
	const slot = 7
	for i := 0; i < 50; i++ {
		srv.runSlot(slot, sessions, cfg.BudgetMbps)
	}
	avg := testing.AllocsPerRun(200, func() {
		srv.runSlot(slot, sessions, cfg.BudgetMbps)
	})
	if avg != 0 {
		t.Fatalf("steady-state runSlot allocates %.2f allocs/op, want 0", avg)
	}
}

// TestAllocatedMapBounded pins the allocation-record purge: a session that
// never ACKs (dead display path) must not grow its slot->allocation join
// map without bound.
func TestAllocatedMapBounded(t *testing.T) {
	cfg := DefaultConfig(core.NewSolverAllocator())
	cfg.SlotWorkers = 1
	srv := stoppedServer(t, cfg)
	sess := bareSession(srv, 1, vrmath.Pose{Pos: vrmath.Vec3{X: 1, Z: 1}}, 1)
	sessions := []*session{sess}
	for k := 0; k < 4*maxAllocRecords; k++ {
		srv.runSlot(uint32(k), sessions, cfg.BudgetMbps)
	}
	sess.mu.Lock()
	n := len(sess.allocated)
	sess.mu.Unlock()
	if n > maxAllocRecords {
		t.Fatalf("allocated map grew to %d entries, want <= %d", n, maxAllocRecords)
	}
}

// dialQuiet is dialFake without t.Fatal, usable from churn goroutines.
func dialQuiet(srv *Server, user uint32) (*fakeClient, error) {
	udp, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	raw, err := net.Dial("tcp", srv.ControlAddr())
	if err != nil {
		udp.Close()
		return nil, err
	}
	ctrl := transport.NewConn(raw)
	if err := ctrl.Send(transport.Hello{
		User:         user,
		UDPAddr:      udp.LocalAddr().String(),
		RAMThreshold: 64,
	}); err != nil {
		ctrl.Close()
		udp.Close()
		return nil, err
	}
	return &fakeClient{udp: udp, ctrl: ctrl}, nil
}

// TestSlotLoopConcurrentChurnRace hammers the sharded slot loop with
// concurrent joins, departures and live handoffs while slots are being
// decided; run under -race it is the data-race gate of the worker pool,
// and the leak assertion gates pool shutdown via Drain/Close.
func TestSlotLoopConcurrentChurnRace(t *testing.T) {
	baseline := obs.LeakSnapshot()
	cfg := DefaultConfig(core.NewSolverAllocator())
	cfg.SlotDuration = 2 * time.Millisecond
	cfg.SlotWorkers = 4
	cfg.RetransmitOnNack = true
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var dialErrs atomic.Int32

	// Churners: short-lived sessions joining and leaving mid-slot.
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				user := uint32(100*w + i%4 + 1)
				fc, err := dialQuiet(srv, user)
				if err != nil {
					dialErrs.Add(1)
					return
				}
				pose := vrmath.Pose{
					Pos: vrmath.Vec3{X: float64(user), Z: float64(i % 5)},
					Yaw: float64((i * 11) % 360),
				}
				fc.ctrl.Send(transport.PoseUpdate{User: user, Slot: uint32(i), Pose: pose})
				time.Sleep(4 * time.Millisecond)
				fc.close()
			}
		}(w)
	}

	// Handoff worker: exports, adopts and redials one user in a loop while
	// the slot loop keeps deciding.
	wg.Add(1)
	go func() {
		defer wg.Done()
		const user = 999
		fc, err := dialQuiet(srv, user)
		if err != nil {
			dialErrs.Add(1)
			return
		}
		fc.ctrl.Send(transport.PoseUpdate{User: user, Slot: 0, Pose: vrmath.Pose{Pos: vrmath.Vec3{X: 9, Z: 9}}})
		for i := 0; ; i++ {
			select {
			case <-stop:
				fc.close()
				return
			default:
			}
			st, err := srv.ExportSession(user)
			if err != nil {
				time.Sleep(2 * time.Millisecond)
				continue
			}
			if err := srv.AdoptSession(st); err != nil {
				fc.close()
				return
			}
			srv.ReleaseSession(user)
			fc.close()
			fc, err = dialQuiet(srv, user)
			if err != nil {
				dialErrs.Add(1)
				return
			}
			fc.ctrl.Send(transport.PoseUpdate{User: user, Slot: uint32(i), Pose: vrmath.Pose{Pos: vrmath.Vec3{X: 9, Z: 9}}})
			time.Sleep(3 * time.Millisecond)
		}
	}()

	time.Sleep(600 * time.Millisecond)
	close(stop)
	wg.Wait()
	if n := dialErrs.Load(); n > 0 {
		t.Logf("%d churn dials failed (acceptable under load)", n)
	}

	if !srv.Drain(5 * time.Second) {
		t.Error("drain did not flush all send queues")
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	obs.AssertNoLeaks(t, baseline)
}
