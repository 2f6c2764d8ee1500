# Convenience targets. Everything is plain `go` underneath.

GO ?= go

.PHONY: all build test race short perfbench-test bench bench-plan bench-counter bench-obs bench-adaptive bench-scenarios bench-smoke obs-smoke fleet-smoke scenario-smoke fuzz fuzz-smoke soak vet fmt lint netvet vet-escape generate generate-check cross-build experiments examples clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

fmt:
	gofmt -l -w .

# The repo's own vettool (see docs/TESTING.md, "Static analysis"):
# padalign, schedhooks, ctorerr, fieldalign, hotpath, atomicmix.
netvet:
	$(GO) build -o bin/netvet ./cmd/netvet

# Hot-path escape proof (docs/TESTING.md, "Layer 5½"): drives
# `go build -gcflags=-m` and fails if any escape diagnostic lands in a
# //netvet:hotpath function. Warm build caches replay the diagnostics,
# so repeat runs are cheap.
vet-escape: netvet
	./bin/netvet -escape ./...

# Full static-analysis gate. netvet and `go vet` always run;
# staticcheck/govulncheck/fieldalignment run when installed (CI
# installs pinned versions; locally they are skipped with a notice).
lint: netvet
	$(GO) vet ./...
	$(GO) vet -vettool=bin/netvet ./...
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else echo "lint: staticcheck not installed, skipping"; fi
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else echo "lint: govulncheck not installed, skipping"; fi
	@if command -v fieldalignment >/dev/null 2>&1; then \
		fieldalignment ./... || true; \
	else echo "lint: fieldalignment not installed, skipping"; fi

test:
	$(GO) test -shuffle=on ./...

# Regenerate the branchless compare-exchange kernels from the
# internal/optnet table (cmd/kernelgen verifies every embedded network
# exhaustively before emitting code): zkernels.go, and the AVX-512
# lane kernels zlanes_amd64.s with their declarations zlanes_amd64.go.
generate:
	$(GO) run ./cmd/kernelgen -dir internal/runner

# Drift gate: fail if any committed kernel file differs from what the
# current table generates. CI runs this; `go test ./cmd/kernelgen`
# enforces the same in-tree.
generate-check:
	$(GO) run ./cmd/kernelgen -check -dir internal/runner

# The portable path must keep compiling where the assembly kernels do
# not exist: vet (which also compiles the tests) for arm64 and 386.
cross-build:
	GOARCH=arm64 $(GO) vet ./...
	GOARCH=386 $(GO) vet ./...

short:
	$(GO) test -short ./...

# perfbench/ is a nested module (its own go.mod), so the root
# `go test ./...` skips it; it imports internal APIs, so run its vet
# and short tests separately.
perfbench-test:
	cd perfbench && $(GO) vet ./... && $(GO) test -short ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# Benchmarks that gate the compiled-plan/memoization fast paths,
# recorded to BENCH_plan.json (the committed "baseline" set is
# preserved; only "current" is rewritten).
BENCH_KEY = 'BenchmarkBuildK|BenchmarkBuildL|BenchmarkSortNetworks|BenchmarkBatchSort|BenchmarkTraverseParallel'

bench-plan:
	$(GO) test -run '^$$' -bench $(BENCH_KEY) -benchmem -benchtime 300ms . \
		| $(GO) run ./cmd/benchjson -out BENCH_plan.json -set current

# Counter-engine benchmarks (per-token, combining, batched traversal),
# recorded to BENCH_counter.json with the same preserve-other-sets
# semantics as bench-plan.
BENCH_COUNTER_KEY = 'BenchmarkCounter|BenchmarkTraverseBatch'

bench-counter:
	$(GO) test -run '^$$' -bench $(BENCH_COUNTER_KEY) -benchmem -benchtime 300ms . \
		| $(GO) run ./cmd/benchjson -out BENCH_counter.json -set current

# Observability guard lane: the obs=off/obs=on and flight=off/flight=on
# pairs of BenchmarkObsOverhead, recorded to BENCH_obs.json together
# with the on/off overhead ratios. The obs=off rows pin the
# disabled-path cost (acceptance: within noise of the seed
# BenchmarkCounter / BenchmarkCounterCombining numbers); the
# flight pair pins the recorder at block-lease granularity
# (acceptance: ratio <= 1.02). That bar cannot resolve the recorder:
# the lease_L(4,4) lanes are bimodal on a 2-vCPU EPYC, where the
# flight=off lane alone read 217 to 574 ns/value over three
# interleaved sets of three runs. BenchmarkFlightRecord in
# internal/obs measures Record itself.
bench-obs:
	$(GO) test -run '^$$' -bench BenchmarkObsOverhead -benchmem -benchtime 300ms . \
		| $(GO) run ./cmd/benchjson -out BENCH_obs.json -set current -overhead \
			-note "obs=off lanes must track BenchmarkCounter/BenchmarkCounterCombining within noise (<=2%); flight=on/off lease ratio <= 1.02"

# Adaptive-engine load sweep (docs/PERFORMANCE.md, "Adaptive engine"):
# countbench -sweep walks g ∈ {1,2,4,8,16,32} over the width-16
# network and emits benchmark lines straight into benchjson. Two
# passes share one result set: the per-value lanes (atomic / network /
# adaptive, the request pattern of a live ID server) and the block-64
# lanes (atomic-block64 / combining-block64 / adaptive-block64, the
# batched pattern the crossover study used; atomic-block64 is the
# static twin of adaptive-block64). Acceptance: adaptive within 15% of
# the best static lane at every g, and >=1.5x the worst static at the
# endpoints.
bench-adaptive:
	$(GO) build -o bin/countbench ./cmd/countbench
	( ./bin/countbench -sweep -width 16 -duration 150ms -repeat 3 \
		-counter atomic,mutex,network,adaptive ; \
	  ./bin/countbench -sweep -width 16 -duration 150ms -repeat 3 \
		-counter atomic,combining,adaptive -block 64 ) \
		| $(GO) run ./cmd/benchjson -out BENCH_adaptive.json -set current \
			-note "countbench -sweep, width 16, g=1..32; per-value lanes at block 1, batched lanes at block 64; ns/op is per value"

# One-iteration smoke of the same lanes for CI: proves the benchmarks
# and the JSON tooling run, without timing anything.
bench-smoke:
	$(GO) test -run '^$$' -bench $(BENCH_KEY) -benchmem -benchtime 1x . \
		| $(GO) run ./cmd/benchjson -out /tmp/bench_smoke.json -set smoke
	$(GO) test -run '^$$' -bench $(BENCH_COUNTER_KEY) -benchmem -benchtime 1x . \
		| $(GO) run ./cmd/benchjson -out /tmp/bench_counter_smoke.json -set smoke
	$(GO) test -run '^$$' -bench BenchmarkObsOverhead -benchmem -benchtime 1x . \
		| $(GO) run ./cmd/benchjson -out /tmp/bench_obs_smoke.json -set smoke -overhead
	$(GO) build -o bin/countbench ./cmd/countbench
	( ./bin/countbench -sweep -width 4 -duration 5ms -repeat 1 -goroutines 1,2 \
		-counter atomic,adaptive ; \
	  ./bin/countbench -sweep -width 4 -duration 5ms -repeat 1 -goroutines 1,2 \
		-counter combining,adaptive -block 64 ) \
		| $(GO) run ./cmd/benchjson -out /tmp/bench_adaptive_smoke.json -set smoke

# End-to-end observability smoke: countbench serves the obs endpoint
# while netmon scrapes and validates /snapshot, /metrics and
# /debug/vars once, then the server is interrupted and must exit
# cleanly. Run by the CI bench-smoke job.
obs-smoke:
	$(GO) build -o bin/countbench ./cmd/countbench
	$(GO) build -o bin/netmon ./cmd/netmon
	./bin/countbench -width 4 -duration 20ms -repeat 1 -goroutines 2 \
		-counter network,combining -obs -http 127.0.0.1:8720 -linger >/dev/null & \
	CB=$$!; \
	./bin/netmon -addr 127.0.0.1:8720 -once -validate -timeout 10s; RC=$$?; \
	kill -INT $$CB 2>/dev/null; wait $$CB 2>/dev/null; \
	exit $$RC

# Fleet observability smoke: a 2-worker in-process scenario run must
# produce the merged per-phase fleet table (worker snapshots streamed
# over the harness protocol, folded with obs.Merge). Run by the CI
# bench-smoke job.
fleet-smoke:
	$(GO) build -o bin/scenarios ./cmd/scenarios
	./bin/scenarios -scenario burst -workers 2 -duration 60ms \
		| grep -q "fleet phase" \
		&& echo "fleet-smoke: merged fleet table rendered"

# Multi-process traffic harness (docs/TESTING.md, "Layer 6"). Both
# targets launch real countbench -worker OS processes coordinated
# through the counting-network-backed sync server, and fail unless the
# cross-process step-property/gap oracle passes.
#
# scenario-smoke is the CI gate: 2 workers, 3 barrier-synced phases
# (burst scenario), merged through benchjson. bench-scenarios is the
# full 6-scenario fault-injection sweep that refreshes the committed
# BENCH_scenarios.json "current" set.
scenario-smoke:
	$(GO) build -o bin/countbench ./cmd/countbench
	$(GO) build -o bin/scenarios ./cmd/scenarios
	rm -rf /tmp/scenario_smoke && mkdir -p /tmp/scenario_smoke
	./bin/scenarios -scenario burst -workers 2 -duration 100ms \
		-bin bin/countbench -out /tmp/scenario_smoke
	$(GO) run ./cmd/benchjson -out /tmp/scenario_smoke/BENCH_scenarios.json \
		-set smoke /tmp/scenario_smoke/worker-*.json

bench-scenarios:
	$(GO) build -o bin/countbench ./cmd/countbench
	$(GO) build -o bin/scenarios ./cmd/scenarios
	rm -rf /tmp/scenario_bench && mkdir -p /tmp/scenario_bench
	./bin/scenarios -scenario all -workers 3 -duration 100ms \
		-bin bin/countbench -out /tmp/scenario_bench
	$(GO) run ./cmd/benchjson -out BENCH_scenarios.json -set current \
		-note "6 scenarios, 3 workers (real processes), width 8, 100ms phases, seed 1; oracle passed" \
		/tmp/scenario_bench/worker-*.json

# Continuous fuzzing entry points (each runs until interrupted).
fuzz:
	$(GO) test -run '^$$' -fuzz=FuzzApplyTokensStep -fuzztime=30s ./internal/runner
	$(GO) test -run '^$$' -fuzz=FuzzBatchVsSerial -fuzztime=30s ./internal/runner
	$(GO) test -run '^$$' -fuzz=FuzzComparatorsSort -fuzztime=30s ./internal/runner
	$(GO) test -run '^$$' -fuzz=FuzzKernelVsSort -fuzztime=30s ./internal/runner
	$(GO) test -run '^$$' -fuzz=FuzzPlanVsComparators -fuzztime=30s ./internal/runner
	$(GO) test -run '^$$' -fuzz=FuzzJSONUnmarshal -fuzztime=30s ./internal/network
	$(GO) test -run '^$$' -fuzz=FuzzSnapshotMerge -fuzztime=30s ./internal/obs
	$(GO) test -run '^$$' -fuzz=FuzzCounterSchedules -fuzztime=30s ./internal/counter
	$(GO) test -run '^$$' -fuzz=FuzzCombiningSchedules -fuzztime=30s ./internal/counter
	$(GO) test -run '^$$' -fuzz=FuzzRunsVsBlock -fuzztime=30s ./internal/counter
	$(GO) test -run '^$$' -fuzz=FuzzPoolSchedules -fuzztime=30s ./internal/pool
	$(GO) test -run '^$$' -fuzz=FuzzCheckRunVsReference -fuzztime=30s ./internal/harness
	$(GO) test -run '^$$' -fuzz=FuzzDrawReply -fuzztime=30s ./internal/harness/syncsrv
	$(GO) test -run '^$$' -fuzz=FuzzServerRequest -fuzztime=30s ./internal/harness/syncsrv

# Every fuzz target, 10 s each: CI's fuzz-smoke job is this one step,
# so the traversal, compiled-plan (widths 2..40, gates wider than 16
# expanded at compile time) and kernel fuzzers, the counter, combining,
# lease-run and pool schedule fuzzers, the snapshot merge algebra, the
# value oracle and the sync server's reply codec and connection loop
# are fuzzed on every push without the full `make fuzz`. Each new
# interesting input is minimized for at most 1 s instead of the
# default 60 s, which would spend most of the 10 s minimizing.
FUZZ_SMOKE = $(GO) test -run '^$$' -fuzztime=10s -fuzzminimizetime=1s

fuzz-smoke:
	$(FUZZ_SMOKE) -fuzz='^FuzzBatchVsSerial$$' ./internal/runner
	$(FUZZ_SMOKE) -fuzz='^FuzzPlanVsComparators$$' ./internal/runner
	$(FUZZ_SMOKE) -fuzz='^FuzzKernelVsSort$$' ./internal/runner
	$(FUZZ_SMOKE) -fuzz='^FuzzCounterSchedules$$' ./internal/counter
	$(FUZZ_SMOKE) -fuzz='^FuzzCombiningSchedules$$' ./internal/counter
	$(FUZZ_SMOKE) -fuzz='^FuzzRunsVsBlock$$' ./internal/counter
	$(FUZZ_SMOKE) -fuzz='^FuzzPoolSchedules$$' ./internal/pool
	$(FUZZ_SMOKE) -fuzz='^FuzzSnapshotMerge$$' ./internal/obs
	$(FUZZ_SMOKE) -fuzz='^FuzzCheckRunVsReference$$' ./internal/harness
	$(FUZZ_SMOKE) -fuzz='^FuzzDrawReply$$' ./internal/harness/syncsrv
	$(FUZZ_SMOKE) -fuzz='^FuzzServerRequest$$' ./internal/harness/syncsrv

# Nightly-scale schedule exploration (see docs/TESTING.md).
soak:
	$(GO) test -tags soak -run Soak -timeout 20m -v ./internal/sched
	$(GO) test -tags soak -run Soak -timeout 20m -v ./internal/counter
	$(GO) test -run Soak -timeout 20m ./internal/core

experiments:
	$(GO) run ./cmd/experiments

verify:
	$(GO) run ./cmd/verifyall

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/isomorphism
	$(GO) run ./examples/tradeoff 96
	$(GO) run ./examples/loadbalance
	$(GO) run ./examples/concurrent
	$(GO) run ./examples/visualize
	$(GO) run ./examples/pipeline

clean:
	$(GO) clean -testcache
