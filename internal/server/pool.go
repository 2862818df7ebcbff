package server

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// poolShard is the index-chunk size pool participants claim per cursor
// bump: big enough to amortize the atomic, small enough that a few expensive
// sessions do not serialize the slot behind one worker.
const poolShard = 8

// slotPool runs the slot pipeline's per-session phases (predict/estimate/
// admit before the merged solve, fetch/dispatch after it) across a set of
// persistent workers. The pool is built once per server: workers park on a
// run channel between slots instead of being respawned 60 times a second.
//
// forEach is not reentrant — the slot loop is its only caller, and slots
// are strictly sequential, so a single reusable run descriptor suffices
// and the per-slot cost of the parallel path is zero allocations.
type slotPool struct {
	workers int
	runCh   chan *poolRun
	stop    chan struct{}
	wg      sync.WaitGroup
	once    sync.Once
	run     poolRun
}

// poolRun is one forEach invocation: an index space [0, n) consumed in
// poolShard-sized chunks through an atomic cursor by every participant
// (the caller claims work too, so a 1-worker pool degenerates to the
// serial loop with no handoff latency).
type poolRun struct {
	n      int
	fn     func(int)
	cursor atomic.Int64
	wg     sync.WaitGroup

	mu     sync.Mutex
	panicV any
	stack  []byte
}

// poolPanic carries a panic captured inside a pool worker back to the
// forEach caller, where it is re-thrown so the slot loop's panic isolation
// (safeRunSlot) costs the slot instead of the server. The original stack
// rides along because the re-panic site says nothing about the fault.
type poolPanic struct {
	value any
	stack []byte
}

func (p poolPanic) String() string {
	return fmt.Sprintf("%v (from slot pool worker)\n%s", p.value, p.stack)
}

// newSlotPool returns a pool with the given total parallelism (caller
// included). workers <= 1 builds a poolless pool: forEach runs inline.
func newSlotPool(workers int) *slotPool {
	if workers < 1 {
		workers = 1
	}
	p := &slotPool{
		workers: workers,
		runCh:   make(chan *poolRun, workers),
		stop:    make(chan struct{}),
	}
	for i := 1; i < workers; i++ {
		p.wg.Add(1)
		go p.worker()
	}
	return p
}

func (p *slotPool) worker() {
	defer p.wg.Done()
	for {
		select {
		case <-p.stop:
			return
		case run := <-p.runCh:
			run.work()
		}
	}
}

// work claims chunks until the cursor passes n. A panic in fn aborts this
// participant's remaining share and is recorded (first one wins) for the
// caller to re-throw; other participants keep draining their chunks, which
// is harmless because the whole slot is abandoned on rethrow anyway.
func (r *poolRun) work() {
	defer r.wg.Done()
	defer func() {
		if v := recover(); v != nil {
			r.mu.Lock()
			if r.panicV == nil {
				r.panicV = v
				buf := make([]byte, 64<<10)
				r.stack = buf[:runtime.Stack(buf, false)]
			}
			r.mu.Unlock()
		}
	}()
	for {
		lo := int(r.cursor.Add(poolShard)) - poolShard
		if lo >= r.n {
			return
		}
		hi := lo + poolShard
		if hi > r.n {
			hi = r.n
		}
		for i := lo; i < hi; i++ {
			r.fn(i)
		}
	}
}

// forEach runs fn(i) for every i in [0, n), sharded across the pool, and
// returns when all indices completed. Serial pools (and jobs too small to
// split) run inline, where a panic propagates natively; parallel runs
// re-throw the first captured worker panic after the barrier.
func (p *slotPool) forEach(n int, fn func(int)) {
	if n <= 0 {
		return
	}
	parts := (n + poolShard - 1) / poolShard
	if p != nil && parts > p.workers {
		parts = p.workers
	}
	if p == nil || p.workers <= 1 || parts <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	run := &p.run
	run.n, run.fn = n, fn
	run.cursor.Store(0)
	run.panicV, run.stack = nil, nil
	run.wg.Add(parts)
	for i := 1; i < parts; i++ {
		p.runCh <- run
	}
	run.work() // the caller is participant 0
	run.wg.Wait()
	run.fn = nil
	if run.panicV != nil {
		panic(poolPanic{value: run.panicV, stack: run.stack})
	}
}

// Close stops the workers and waits for them to exit; idempotent.
func (p *slotPool) Close() {
	if p == nil {
		return
	}
	p.once.Do(func() { close(p.stop) })
	p.wg.Wait()
}
