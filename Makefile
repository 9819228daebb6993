# Build/test entry points. CI (.github/workflows/ci.yml) runs exactly these
# targets, so a green `make build test race` locally predicts a green CI run.

GO ?= go

.PHONY: build lint vulncheck test test-full race chaos fuzz-smoke bench-smoke bench-scale bench-scale-100k trace-smoke cache-warm daemon-smoke bench-daemon daemon-trace-smoke

# Compile everything and vet it.
build:
	$(GO) build ./...
	$(GO) vet ./...

# Static analysis beyond vet. staticcheck is not vendored (no new module
# dependencies); CI installs it, and locally the target degrades to vet-only
# with a notice when the binary is absent.
lint:
	$(GO) vet ./...
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "lint: staticcheck not installed; ran go vet only (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

# Known-vulnerability scan over the module and its (stdlib-only) call graph.
# Same degradation pattern as lint: CI installs govulncheck, locally the
# target prints a notice and succeeds when the binary is absent.
vulncheck:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "vulncheck: govulncheck not installed; skipped (go install golang.org/x/vuln/cmd/govulncheck@latest)"; \
	fi

# Fast suite: skips the quick-tables smoke run and the heavier golden cases.
# The benchmark harness is a nested module that ./... does not reach; vetting
# and testing it here catches public-API changes that would break it.
test:
	$(GO) test -short -timeout 10m ./...
	cd tsbench && $(GO) vet . && $(GO) test .

# Full tier-1 suite, including the experiments smoke test.
test-full:
	$(GO) test -timeout 20m ./...

# Race detector over the fast suite (covers the parallel label engine, the
# sharded decomposition cache, the speculative search and the
# fault-injection scenarios).
race:
	$(GO) test -race -short -timeout 20m ./...

# Chaos suite: every fault-injection scenario (contained panics, mid-sweep
# cancellation, budget exhaustion, slow workers, randomized plans) plus the
# cancellation-latency contract and the persistent-cache interruption
# scenarios (cancelled runs and truncated flushes must never leave an
# unloadable cache log), repeated under the race detector.
chaos:
	$(GO) test -race -count 2 -timeout 20m \
		-run 'TestInjected|TestRandomizedChaos|TestRealBudgetDegradation|TestGenerousBudgets|TestCancelBeforeStart|TestFeasibleContextCancel|TestTraceFlush|TestCacheDirSurvives' \
		./internal/core
	$(GO) test -race -count 2 ./internal/faultinject ./internal/decomp/cachelog
	$(GO) test -race -timeout 10m -run 'TestSynthesizeCancel|TestSynthesizeDeadline|TestSynthesizeExpired' .
	$(GO) test -race -count 2 -timeout 15m -run 'TestChaos|TestJournal' ./internal/server
	$(GO) test -race -count 2 ./internal/jobqueue

# Daemon smoke: the end-to-end serving contract over real HTTP — a mixed
# batch of quick jobs from three tenants including one malformed BLIF (typed
# invalid failure) and one over-quota burst (429 + Retry-After), plus the
# restart-recovery and drain-refusal scenarios, all under the race detector.
# Every accepted job must reach a terminal state and the drain must leave
# accepted == done + failed + shed (see internal/server/server_test.go).
daemon-smoke:
	$(GO) test -race -count=1 -timeout 10m -v \
		-run 'TestDaemonSmoke|TestDaemonRecovery|TestDaemonDrainRejectsSubmit|TestDaemonByteIdentity|TestDaemonMemBudgetAdmission|TestProgressStream' \
		./internal/server
	$(GO) test -race -count=1 ./internal/jobqueue

# Daemon load benchmark: cmd/loadgen replays 1000 quick jobs per
# concurrency level against an in-process daemon (saturation sweep), and the
# p50/p99/throughput numbers are rendered to BENCH_daemon_new.json and gated
# against the committed BENCH_daemon.json. The time gate is loose (5x) —
# end-to-end daemon latency includes HTTP and scheduler noise that per-op
# engine benchmarks do not have — with matching tail gates: p99 growth
# beyond 5x or a retries explosion beyond 10x ((new+1)/(old+1)) fails the
# run even when the mean stayed flat, which is precisely how serving
# regressions present under load. Bytes/allocs gates are disabled (loadgen
# reports neither).
bench-daemon:
	$(GO) run ./cmd/loadgen -jobs 1000 -concurrency 8,32,128 | tee loadgen-daemon.txt
	$(GO) run ./cmd/benchjson -o BENCH_daemon_new.json < loadgen-daemon.txt
	$(GO) run ./cmd/benchjson -delta -max-time-ratio 5.0 -max-bytes-ratio 0 -max-allocs-ratio 0 -max-p99-ratio 5.0 -max-retries-ratio 10.0 BENCH_daemon.json BENCH_daemon_new.json
	mv BENCH_daemon_new.json BENCH_daemon.json

# Daemon observability smoke: boot a real turbosynd (journal, debug mux),
# run one job end to end over HTTP, then assert the observability surfaces
# are truthful — the stitched per-job trace downloads and passes tracecheck
# with the daemon spans present, /metrics exposes the lifecycle histograms
# and per-tenant gauges, and the pprof debug mux answers. Artifacts
# (daemon-trace.json, daemon-metrics.txt) are left for CI to upload; load
# the trace in https://ui.perfetto.dev.
daemon-trace-smoke:
	./scripts/daemon-trace-smoke.sh

# Warm-cache gate: run the suite slice twice against one cache directory and
# assert the second run serves >= 80% of its hits from persisted entries,
# skips >= 80% of the Roth-Karp scans, and emits byte-identical BLIF (see
# cachewarm_test.go). CI keys the directory on the cache-log format version
# (internal/decomp/cachelog.Version), so a format bump starts cold.
cache-warm:
	TURBOSYN_CACHE_DIR=$(CURDIR)/.decomp-cache $(GO) test -run TestCacheWarmSuite -count=1 -timeout 20m -v .

# Native fuzzing smoke over the BLIF reader: 30s of coverage-guided input
# generation against the parse-or-error-cleanly contract.
fuzz-smoke:
	$(GO) test -fuzz FuzzReadBLIF -fuzztime 30s -run '^$$' ./internal/netlist

# One iteration of the PLD, scaling and warm-probe benchmarks; sanity,
# not statistics. The Scale benchmarks run j1/jN sub-benchmarks, so the
# output shows the parallel engine's speedup on whatever machine ran them.
# The text log is rendered to BENCH_new.json and gated against the committed
# BENCH_labels.json by `benchjson -delta` (per-benchmark ns/op, B/op and
# allocs/op ratios; generous time threshold because runners differ, tighter
# bytes/allocs thresholds because allocation is machine-independent — and a
# benchmark that was allocation-free may never start allocating) before
# replacing it. The second block does the same for the engine-reuse
# benchmarks (one-shot Minimize vs a reused Engine), gated against
# BENCH_engine.json — the artifact that shows the amortization actually
# amortizes.
bench-smoke:
	$(GO) test -bench 'BenchmarkPLD|BenchmarkScale1k|BenchmarkPipeline4k|BenchmarkWarmProbes' -benchtime 1x -benchmem -run '^$$' -timeout 20m . | tee bench-smoke.txt
	$(GO) run ./cmd/benchjson -o BENCH_new.json < bench-smoke.txt
	$(GO) run ./cmd/benchjson -delta -max-time-ratio 3.0 -max-bytes-ratio 1.5 -max-allocs-ratio 1.5 BENCH_labels.json BENCH_new.json
	mv BENCH_new.json BENCH_labels.json
	$(GO) test -bench 'BenchmarkEngineReuse' -benchtime 1x -benchmem -run '^$$' -timeout 20m . | tee bench-engine.txt
	$(GO) run ./cmd/benchjson -o BENCH_engine_new.json < bench-engine.txt
	$(GO) run ./cmd/benchjson -delta -max-time-ratio 3.0 -max-bytes-ratio 1.5 -max-allocs-ratio 1.5 BENCH_engine.json BENCH_engine_new.json
	mv BENCH_engine_new.json BENCH_engine.json

# Sample observability artifact: synthesize one suite circuit with tracing,
# logging and progress on, leaving trace.json for inspection (CI uploads it;
# load it in https://ui.perfetto.dev or chrome://tracing).
trace-smoke:
	$(GO) run ./cmd/benchgen -dir benchmarks
	$(GO) run ./cmd/turbosyn -trace trace.json -log-json -o /dev/null benchmarks/bbara.blif
	@$(GO) run ./cmd/tracecheck trace.json

# Scheduler scaling only: the Scale1k, deep-pipeline Pipeline4k and
# multi-core Scale10k j1-vs-jN pairs, captured with CPU/heap profiles and
# gated against the committed BENCH_scale.json by `benchjson -delta` (same
# thresholds as bench-smoke) before replacing it. On a multi-core runner the
# jN numbers must beat j1 — this is the artifact that shows whether they do.
# BenchmarkScale100k (~100k gates, minutes per pair) is not part of this
# gate: it skips itself unless TURBOSYN_BENCH_100K is set, so run it
# manually or nightly via bench-scale-100k below.
bench-scale:
	$(GO) test -bench 'BenchmarkScale1k|BenchmarkPipeline4k|BenchmarkScale10k' -benchtime 1x -benchmem -run '^$$' -timeout 30m \
		-cpuprofile bench-scale-cpu.pprof -memprofile bench-scale-mem.pprof . | tee bench-scale.txt
	$(GO) run ./cmd/benchjson -o BENCH_scale_new.json < bench-scale.txt
	$(GO) run ./cmd/benchjson -delta -max-time-ratio 3.0 -max-bytes-ratio 1.5 -max-allocs-ratio 1.5 BENCH_scale.json BENCH_scale_new.json
	mv BENCH_scale_new.json BENCH_scale.json

# Manual/nightly 100k-gate scale push: the Scale100k j1-vs-jN pair, profiles
# included, rendered to BENCH_scale100k.json (reported, not gated — the run
# is too long and too machine-sensitive for a ratio gate).
bench-scale-100k:
	TURBOSYN_BENCH_100K=1 $(GO) test -bench 'BenchmarkScale100k' -benchtime 1x -benchmem -run '^$$' -timeout 60m \
		-cpuprofile bench-scale-100k-cpu.pprof -memprofile bench-scale-100k-mem.pprof . | tee bench-scale-100k.txt
	$(GO) run ./cmd/benchjson -o BENCH_scale100k.json < bench-scale-100k.txt
