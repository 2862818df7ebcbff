# Common tasks for the collabvr reproduction.

GO ?= go

.PHONY: all build vet test race lint fmt-check rng-guard bench bench-smoke fuzz-smoke ci figures figures-full loadtest-smoke trace-smoke chaos-smoke regret-smoke fleet-smoke slotloop-smoke coord-smoke health-smoke health-baseline perfbench-test flake-sweep clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# staticcheck when available (CI installs it; locally the target degrades to
# a notice rather than failing on a missing tool), plus the gofmt and source
# guards.
lint: vet fmt-check rng-guard
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "lint: staticcheck not installed, skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

# Every Go file must be gofmt-clean; the check lists the offenders
# (perfbench's build directory is skipped like in rng-guard).
fmt-check:
	@bad=$$(find . -name '*.go' ! -path './.bench_build/*' -exec gofmt -l {} +); \
	if [ -n "$$bad" ]; then \
		echo "fmt-check: files not gofmt-clean (run gofmt -w):"; \
		echo "$$bad"; exit 1; \
	fi

# internal/rng is the one seeded source: it draws math/rand's stream with
# chain-free seeding. Non-test code that seeds math/rand directly pays the
# serial 1,841-step seeding again, so the guard rejects it.
rng-guard:
	@bad=$$(find . -name '*.go' ! -name '*_test.go' ! -path './internal/rng/*' \
		! -path './.bench_build/*' -exec grep -ln 'rand\.NewSource(' {} +); \
	if [ -n "$$bad" ]; then \
		echo "rng-guard: math/rand.NewSource outside internal/rng (use rng.New):"; \
		echo "$$bad"; exit 1; \
	fi

test:
	$(GO) test ./...

race:
	$(GO) test -race ./internal/... ./cmd/...

# What CI runs (see .github/workflows/ci.yml).
ci: build lint test race bench-smoke fuzz-smoke loadtest-smoke trace-smoke chaos-smoke regret-smoke fleet-smoke slotloop-smoke coord-smoke health-smoke perfbench-test flake-sweep

# Full benchmark pass: the allocator and slot-loop JSON reports (each run
# also appended as a timestamped entry to the results/bench_history.jsonl
# trajectory), then every Go benchmark in the tree. Gate a fresh report
# against the committed one with, e.g.:
#   $(GO) run ./cmd/collabvr-bench -compare BENCH_allocator.json \
#       -compare-baseline <committed.json>
bench:
	@mkdir -p results
	$(GO) run ./cmd/collabvr-bench -allocator -alloc-out BENCH_allocator.json \
		-history results/bench_history.jsonl
	$(GO) run ./cmd/collabvr-bench -slotloop -slotloop-out BENCH_slotloop.json \
		-history results/bench_history.jsonl
	$(GO) run ./cmd/collabvr-bench -coord -coord-out BENCH_coord.json \
		-history results/bench_history.jsonl
	$(GO) test -bench=. -benchmem ./...

# One-iteration compile-and-run of the Solve, per-session build-phase and
# session set-up (seeding, motion and capacity trace) benchmarks (CI keeps
# them building and panicking-free without paying for a full measurement).
bench-smoke:
	$(GO) test -run '^$$' -bench Solve -benchtime 1x ./internal/knapsack ./internal/core
	$(GO) test -run '^$$' -bench 'Predictor|RateTableInto|NormalizeAngle' -benchtime 1x \
		./internal/motion ./internal/tiles ./internal/vrmath
	$(GO) test -run '^$$' -bench 'NewSource|BenchmarkGenerate$$|CapSlots' -benchtime 1x \
		./internal/rng ./internal/motion ./internal/load

# Brief native fuzzing of the greedy differential, DP, coordinator-log and
# seeded-source targets (~10 s each) on top of the checked-in seed corpora
# under testdata/fuzz.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzGreedy$$' -fuzztime 10s ./internal/knapsack
	$(GO) test -run '^$$' -fuzz '^FuzzDynamicProgram$$' -fuzztime 10s ./internal/knapsack
	$(GO) test -run '^$$' -fuzz '^FuzzCoordLog$$' -fuzztime 10s ./internal/fleet/coord
	$(GO) test -run '^$$' -fuzz '^FuzzSourceMatchesMathRand$$' -fuzztime 10s ./internal/rng

# Slot-loop smoke (< 60 s): the 10k-session virtual-time differential —
# serial and sharded-build campaigns must produce bit-identical reports —
# then the solver allocation gate.
slotloop-smoke:
	@mkdir -p results
	$(GO) run ./cmd/collabvr-bench -slotloop-smoke -seed 3 | tee results/slotloop_smoke.txt
	grep -q 'slotloop equivalence: OK' results/slotloop_smoke.txt
	$(GO) test -run 'TestRunSlotSteadyStateAllocs|TestSlotPool' ./internal/server

# Regenerate every paper figure (scaled down; ~minutes).
figures:
	@mkdir -p results
	$(GO) run ./cmd/collabvr-bench | tee results/results_bench.txt

# Paper-scale parameters (much longer; run on an idle machine).
figures-full:
	@mkdir -p results
	$(GO) run ./cmd/collabvr-bench -full | tee results/results_bench_full.txt

# Load-harness smoke (< 30 s): a live loopback run with ~100 churning
# sessions plus a record/replay determinism check, then a sim-mode capacity
# search on a reduced budget so the search converges inside the bracket.
loadtest-smoke:
	$(GO) run ./cmd/collabvr-loadgen -mode live -arrivals poisson -rate 30 \
		-mean-hold 1 -sessions 100 -slots 180 -slotms 20 -check-replay
	$(GO) run ./cmd/collabvr-loadgen -find-capacity -budget 120 -slots 120 \
		-miss-target 0.05 -cap-lo 1 -cap-hi 64

# Chaos smoke (< 30 s): validate the example fault profiles, run the seeded
# sim campaign under a mid-run blackout and assert the QoE dip/recovery
# summary appears, then a short live loopback run under the same profile
# exercising reconnect, bounded retransmission and graceful drain.
chaos-smoke:
	@mkdir -p results
	$(GO) run ./cmd/collabvr-loadgen -chaos examples/chaos/smoke.json -chaos-check
	$(GO) run ./cmd/collabvr-loadgen -chaos examples/chaos/blackout.json -chaos-check
	$(GO) run ./cmd/collabvr-loadgen -chaos examples/chaos/burst-loss.json -chaos-check
	$(GO) run ./cmd/collabvr-loadgen -arrivals steady -sessions 12 -slots 600 \
		-seed 7 -chaos examples/chaos/smoke.json | tee results/chaos_smoke.txt
	grep -q 'breaker-degraded session-slots' results/chaos_smoke.txt
	grep -q 'chaos recovery' results/chaos_smoke.txt
	$(GO) run ./cmd/collabvr-loadgen -mode live -arrivals steady -sessions 8 \
		-slots 240 -slotms 10 -reconnect -drain-timeout 2s \
		-chaos examples/chaos/smoke.json

# Tracing smoke (< 30 s): a sim-mode loadgen run with span export on,
# asserting the exporter dropped nothing, then the span-analysis CLI over
# the exported JSONL (it exits nonzero on malformed or empty input).
trace-smoke:
	@mkdir -p results
	$(GO) run ./cmd/collabvr-loadgen -arrivals poisson -rate 20 -mean-hold 1 \
		-sessions 50 -slots 240 -slo -span-out results/smoke_spans.jsonl \
		| tee results/smoke_spans.txt
	grep -q 'dropped 0' results/smoke_spans.txt
	$(GO) run ./cmd/collabvr-spans results/smoke_spans.jsonl

# Regret/tournament smoke (< 30 s): record a seeded sim run's decisions
# with counterfactuals and the DP regret reference, attribute them with
# collabvr-regret, then run the deterministic policy tournament twice and
# assert the two ranked tables are byte-identical.
regret-smoke:
	@mkdir -p results
	$(GO) run ./cmd/collabvr-loadgen -arrivals steady -sessions 6 -slots 240 \
		-budget 60 -seed 7 -decisions-out results/smoke_decisions.jsonl \
		-counterfactual-k 3 -regret-ref | tee results/regret_smoke.txt
	grep -q 'decisions: recorded' results/regret_smoke.txt
	$(GO) run ./cmd/collabvr-regret results/smoke_decisions.jsonl
	$(GO) run ./cmd/collabvr-regret -tournament -sessions 4 -slots 120 \
		-budget 60 -seed 7 -regret-resolution 2 > results/tournament_a.txt
	$(GO) run ./cmd/collabvr-regret -tournament -sessions 4 -slots 120 \
		-budget 60 -seed 7 -regret-resolution 2 > results/tournament_b.txt
	cmp results/tournament_a.txt results/tournament_b.txt
	grep -q 'dvgreedy' results/tournament_a.txt

# Fleet smoke (< 60 s): validate the shard-fault profile, then run the
# seeded 3-shard campaign that kills one shard mid-run and assert the
# resilience contract — every session migrates instead of dropping, the run
# reproduces bit for bit, and tail quality recovers to within 10% of the
# fault-free baseline. A short live loopback fleet run exercises the real
# Welcome-resume migration path end to end.
fleet-smoke:
	@mkdir -p results
	$(GO) run ./cmd/collabvr-fleet -chaos examples/chaos/fleet.json -chaos-check
	$(GO) run ./cmd/collabvr-fleet -shards 3 -sessions 9 -slots 1200 -seed 42 \
		-chaos examples/chaos/fleet.json -verify-recovery | tee results/fleet_smoke.txt
	grep -q 'degrades-not-drops: OK' results/fleet_smoke.txt
	grep -q 'determinism: OK' results/fleet_smoke.txt
	grep -q 'recovery: OK' results/fleet_smoke.txt
	$(GO) run ./cmd/collabvr-fleet -mode live -shards 2 -sessions 4 \
		-slots 240 -slotms 10 -budget 300

# Coordinator smoke (< 60 s): validate the coordinator-fault profile, then
# run the seeded 3-shard / 3-coordinator campaign that kills the lease
# holder mid-migration and assert the replication contract — no session
# drops, the survivors elect and converge, the run reproduces bit for bit,
# and a deposed leader's stale flips are fenced. A short live loopback run
# exercises the same failover on the real slot clock.
coord-smoke:
	@mkdir -p results
	$(GO) run ./cmd/collabvr-fleet -coordinators 3 -chaos examples/chaos/coordkill.json -chaos-check
	$(GO) run ./cmd/collabvr-fleet -shards 3 -sessions 9 -slots 1200 -seed 42 \
		-coordinators 3 -chaos examples/chaos/coordkill.json -verify-recovery \
		| tee results/coord_smoke.txt
	grep -q 'degrades-not-drops: OK' results/coord_smoke.txt
	grep -q 'determinism: OK' results/coord_smoke.txt
	grep -q 'coord failover: OK' results/coord_smoke.txt
	$(GO) test -run 'TestFleetCoordLeaderKillMidMigration|TestAdoptSessionEpochFencing' \
		./internal/load ./internal/server

# Health smoke (< 60 s): the seeded 3-shard evacuation campaign exports
# its health time-series (bit-identical per seed), then collabvr-health
# gates the export against the checked-in baseline — trend drift past the
# tolerance on any bad-direction series fails the build.
health-smoke:
	@mkdir -p results
	$(GO) run ./cmd/collabvr-loadgen -shards 3 -sessions 6 -slots 240 \
		-budget 300 -seed 5 -evac -health-out results/health_smoke.jsonl \
		| tee results/health_smoke.txt
	grep -q 'health: exported' results/health_smoke.txt
	$(GO) run ./cmd/collabvr-health -baseline results/health_baseline.json \
		results/health_smoke.jsonl

# Repository benchmark module (< 10 s): perfbench/ is its own Go module, so
# the root `go test ./...` never reaches it. Its replay and probe
# differentials are what keep its re-implementation of Simulate's slot loop
# in step with the engine.
perfbench-test:
	GOWORK=off $(GO) -C perfbench vet ./...
	GOWORK=off $(GO) -C perfbench test ./...

# Flake sweep (< 60 s): repeat the live-socket tests that have flaked on
# scheduling before, so a timing-dependent assertion fails here rather than
# one run in five.
flake-sweep:
	$(GO) test -count=10 -run '^TestLiveMigrationWelcomeResume$$' ./internal/fleet
	$(GO) test -count=10 -run '^TestLiveMigrationUnderHealthSampler$$' ./internal/fleet
	$(GO) test -count=10 -run '^TestServerRetiresDepartedSessions$$' ./internal/server

# Regenerate the checked-in health baseline from the same seeded campaign
# (run after a deliberate behavior change, then commit the new baseline).
health-baseline:
	@mkdir -p results
	$(GO) run ./cmd/collabvr-loadgen -shards 3 -sessions 6 -slots 240 \
		-budget 300 -seed 5 -evac -health-out results/health_smoke.jsonl
	$(GO) run ./cmd/collabvr-health -write-baseline results/health_baseline.json \
		results/health_smoke.jsonl

clean:
	rm -f results/results_bench.txt results/results_bench_full.txt \
		results/smoke_spans.jsonl results/smoke_spans.txt \
		results/chaos_smoke.txt results/regret_smoke.txt \
		results/smoke_decisions.jsonl results/tournament_a.txt \
		results/tournament_b.txt results/fleet_smoke.txt \
		results/slotloop_smoke.txt \
		results/health_smoke.jsonl results/health_smoke.txt \
		test_output.txt bench_output.txt
