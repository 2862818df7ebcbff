package load

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/baseline"
	"repro/internal/chaos"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/netem"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/trace"
	"repro/internal/transport"
)

// loadMetrics bundles the harness's own instruments; all nil-safe.
type loadMetrics struct {
	spawned   *obs.Counter
	completed *obs.Counter
	failed    *obs.Counter
	active    *obs.Gauge
	setupMs   *obs.Histogram
	qoe       *obs.Histogram
	missFrac  *obs.Histogram
}

func newLoadMetrics(r *obs.Registry) loadMetrics {
	return loadMetrics{
		spawned:   r.Counter("collabvr_loadgen_sessions_spawned_total"),
		completed: r.Counter("collabvr_loadgen_sessions_completed_total"),
		failed:    r.Counter("collabvr_loadgen_sessions_failed_total"),
		active:    r.Gauge("collabvr_loadgen_sessions_active"),
		setupMs:   r.Histogram("collabvr_loadgen_session_setup_ms", obs.DefaultLatencyBuckets()),
		qoe:       r.Histogram("collabvr_loadgen_session_qoe", obs.LinearBuckets(-2, 0.5, 20)),
		missFrac:  r.Histogram("collabvr_loadgen_session_deadline_miss_frac", obs.LinearBuckets(0.01, 0.05, 20)),
	}
}

// observeOutcome feeds one completed session into the histograms.
func (m *loadMetrics) observeOutcome(o SessionOutcome) {
	m.qoe.Observe(o.QoE)
	m.missFrac.Observe(o.MissFrac)
	if o.SetupMs > 0 {
		m.setupMs.Observe(o.SetupMs)
	}
}

// LiveConfig parametrizes a live workload execution: a real
// internal/server.Server on loopback sockets, one emulated client per
// session, per-session token-bucket shaping driven by each session's
// assigned network trace.
type LiveConfig struct {
	Params core.Params
	// NewAllocator builds the server's allocator; nil means the paper's
	// proposed algorithm.
	NewAllocator func() core.Allocator
	AllocName    string
	BudgetMbps   float64
	// SlotDuration is the real-time slot length (default: derived from the
	// workload's SlotsPerSecond). Scaling it up slows real time without
	// changing the decision pipeline — useful when a machine cannot sustain
	// 60 Hz for thousands of clients.
	SlotDuration time.Duration
	// MaxSessions forwards to server.Config.MaxSessions (accept
	// backpressure); 0 means unlimited.
	MaxSessions int
	// LossProb injects i.i.d. packet loss per session (0 = lossless).
	LossProb float64
	// Unshaped disables per-session token buckets (pure server-limit runs).
	Unshaped bool
	// Metrics receives server, client and harness instruments (shared
	// registry); nil disables.
	Metrics *obs.Registry
	// Recorder receives the server's per-slot decision records; nil
	// disables.
	Recorder *obs.Recorder
	// Tracer receives end-to-end request spans from the server pipeline and
	// every emulated client; nil disables tracing.
	Tracer *trace.Tracer
	// TraceEpoch salts deterministic trace-ID derivation (distinguishes
	// runs sharing an exporter).
	TraceEpoch uint64
	// SLO, when non-nil, tracks per-session deadline-miss and stall burn
	// rates from client ACKs.
	SLO *obs.SLOMonitor
	// Chaos, when non-nil, injects the profile's faults: per-session packet
	// faults and capacity cliffs ride the shaped transmit path (so Unshaped
	// disables them), server stall/slow-ACK faults hit the slot pipeline.
	Chaos *chaos.Profile
	// Breaker, when non-nil, is handed to the server for SLO-driven quality
	// capping; requires SLO.
	Breaker *obs.Breaker
	// RetryPolicy forwards to server.Config.RetryPolicy (NACK backoff and
	// abandonment); zero keeps immediate retransmission.
	RetryPolicy transport.RetryPolicy
	// Reconnect enables the clients' control-channel redial path.
	Reconnect bool
	// DrainTimeout, when positive, gracefully drains the server (flush
	// in-flight slots) before closing it at the end of the run.
	DrainTimeout time.Duration
	// Logf receives diagnostics; nil silences them.
	Logf func(format string, args ...any)
}

func (c LiveConfig) withDefaults(sps float64) LiveConfig {
	if c.Params.Levels == 0 {
		c.Params = core.DefaultSystemParams()
	}
	if c.NewAllocator == nil {
		c.NewAllocator = baseline.MustFactory("proposed")
		if c.AllocName == "" {
			c.AllocName = "proposed"
		}
	}
	if c.AllocName == "" {
		c.AllocName = "custom"
	}
	if c.BudgetMbps <= 0 {
		c.BudgetMbps = 400
	}
	if c.SlotDuration <= 0 {
		c.SlotDuration = time.Duration(float64(time.Second) / sps)
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// sessionNet is the per-session transmit path: the session's token bucket
// (rate driven by its network trace), optional i.i.d. loss, and optional
// chaos faults. It implements transport.Shaper, and transport.FaultInjector
// by delegation — the Sender detects the latter and consults it per packet.
type sessionNet struct {
	bucket *netem.TokenBucket
	loss   *netem.LossModel
	inj    *chaos.Injector // nil without a chaos profile
	caps   []float64
}

func (n *sessionNet) Admit(size int, now time.Time) time.Duration { return n.bucket.Admit(size, now) }
func (n *sessionNet) Drop() bool {
	if n.loss == nil {
		return false
	}
	return n.loss.Drop()
}
func (n *sessionNet) PacketFault() transport.PacketFault { return n.inj.PacketFault() }

// RunLive executes the workload against a live server over loopback
// sockets. Sessions are launched on a real-time slot clock at their arrival
// slots, run as independent client goroutines for their configured
// duration, and report their client-observed QoE on completion. The run
// ends when the horizon's slots have elapsed on the server; stragglers are
// drained by the server shutdown.
func RunLive(w *Workload, cfg LiveConfig) (*RunReport, error) {
	if len(w.Sessions) == 0 {
		return nil, fmt.Errorf("load: empty workload")
	}
	sps := w.Cfg.SlotsPerSecond
	if sps <= 0 {
		sps = 60
	}
	cfg = cfg.withDefaults(sps)
	start := time.Now()
	lm := newLoadMetrics(cfg.Metrics)

	// Per-session shaping state, built before the server starts so
	// ShaperFor is a pure lookup.
	nets := make(map[uint32]*sessionNet, len(w.Sessions))
	if !cfg.Unshaped {
		for _, spec := range w.Sessions {
			caps := w.CapSlots(spec)
			n := &sessionNet{
				bucket: netem.NewTokenBucket(caps[0], 16<<10, start),
				caps:   caps,
			}
			if cfg.LossProb > 0 {
				n.loss = netem.NewLossModel(cfg.LossProb, w.Cfg.Seed+int64(spec.ID)*131)
			}
			n.inj = chaos.NewInjector(cfg.Chaos, spec.ID)
			nets[spec.ID] = n
		}
	}

	srvCfg := server.DefaultConfig(cfg.NewAllocator())
	srvCfg.Params = cfg.Params
	srvCfg.SlotDuration = cfg.SlotDuration
	srvCfg.BudgetMbps = cfg.BudgetMbps
	srvCfg.TotalSlots = w.Cfg.HorizonSlots
	srvCfg.MaxSessions = cfg.MaxSessions
	srvCfg.Metrics = cfg.Metrics
	srvCfg.Recorder = cfg.Recorder
	srvCfg.Tracer = cfg.Tracer
	srvCfg.TraceEpoch = cfg.TraceEpoch
	srvCfg.SLO = cfg.SLO
	srvCfg.Breaker = cfg.Breaker
	srvCfg.RetryPolicy = cfg.RetryPolicy
	srvCfg.Chaos = chaos.NewServerInjector(cfg.Chaos)
	srvCfg.Logf = cfg.Logf
	if !cfg.Unshaped {
		srvCfg.ShaperFor = func(user uint32) transport.Shaper {
			if n, ok := nets[user]; ok {
				return n
			}
			return nil
		}
	}
	srv, err := server.New(srvCfg)
	if err != nil {
		return nil, err
	}

	report := &RunReport{
		Mode:         "live",
		Algorithm:    cfg.AllocName,
		HorizonSlots: w.Cfg.HorizonSlots,
		Spawned:      len(w.Sessions),
	}
	qoeParams := metrics.QoEParams{Alpha: cfg.Params.Alpha, Beta: cfg.Params.Beta}

	var (
		mu     sync.Mutex
		wg     sync.WaitGroup
		active int
	)
	noteStart := func() {
		mu.Lock()
		active++
		if active > report.PeakConcurrent {
			report.PeakConcurrent = active
		}
		mu.Unlock()
		lm.active.Add(1)
		lm.spawned.Inc()
	}
	noteEnd := func(res *client.Result, err error) {
		mu.Lock()
		defer mu.Unlock()
		active--
		lm.active.Add(-1)
		if err != nil || res == nil || res.Slots == 0 {
			// Errored, or rejected by backpressure before serving a slot.
			report.Failed++
			lm.failed.Inc()
			return
		}
		out := SessionOutcome{
			ID:       res.User,
			Slots:    res.Slots,
			QoE:      res.Report.QoE,
			Quality:  res.Report.Quality,
			DelayMs:  res.Report.Delay,
			Variance: res.Report.Variance,
			Coverage: res.Report.Coverage,
			MissFrac: 1 - res.Report.FPSFrac,
			SetupMs:  res.SetupMs,
		}
		report.Outcomes = append(report.Outcomes, out)
		report.Completed++
		lm.completed.Inc()
		lm.observeOutcome(out)
	}

	launch := func(spec SessionSpec) {
		noteStart()
		wg.Add(1)
		go func() {
			defer wg.Done()
			trace := w.MotionTrace(spec, 64)
			ccfg := client.DefaultConfig(spec.ID, srv.ControlAddr(), trace)
			ccfg.SlotDuration = cfg.SlotDuration
			ccfg.Params = qoeParams
			ccfg.Slots = spec.Slots()
			ccfg.Metrics = cfg.Metrics
			ccfg.Tracer = cfg.Tracer
			ccfg.Reconnect = cfg.Reconnect
			res, err := client.Run(ccfg)
			if err != nil {
				cfg.Logf("loadgen: session %d: %v", spec.ID, err)
			}
			noteEnd(res, err)
		}()
	}

	// Slot-clock scheduler: launches arrivals and drives each active
	// session's shaping rate along its network trace.
	schedDone := make(chan struct{})
	go func() {
		defer close(schedDone)
		ticker := time.NewTicker(cfg.SlotDuration)
		defer ticker.Stop()
		slot := 0
		next := 0
		for slot < w.Cfg.HorizonSlots {
			select {
			case <-srv.Done():
				return
			case now := <-ticker.C:
				for next < len(w.Sessions) && w.Sessions[next].ArriveSlot <= slot {
					launch(w.Sessions[next])
					next++
				}
				if !cfg.Unshaped {
					for _, spec := range w.Sessions[:next] {
						local := slot - spec.ArriveSlot
						n := nets[spec.ID]
						if local < 0 || local >= len(n.caps) {
							continue
						}
						n.inj.Advance(slot)
						// Cliffs scale the shaped rate; blackouts drop on the
						// packet path instead (a zero-rate bucket would stall
						// Admit for an hour, not a fault window).
						rate := n.caps[local] * n.inj.CapFactor()
						if rate != n.bucket.Rate() {
							n.bucket.SetRate(rate, now)
						}
					}
				}
				slot++
			}
		}
	}()

	<-srv.Done()
	<-schedDone
	if cfg.DrainTimeout > 0 {
		if !srv.Drain(cfg.DrainTimeout) {
			cfg.Logf("loadgen: drain timed out with unflushed sessions")
		}
	}
	if err := srv.Close(); err != nil {
		cfg.Logf("loadgen: server close: %v", err)
	}
	wg.Wait()
	report.WallSec = time.Since(start).Seconds()
	sortOutcomes(report.Outcomes)
	if h := cfg.Metrics.Histogram("collabvr_server_slot_decision_ms", obs.DefaultLatencyBuckets()); h.Count() > 0 {
		report.SlotDecisionP50Ms = h.Quantile(0.50)
		report.SlotDecisionP99Ms = h.Quantile(0.99)
	}
	return report, nil
}
