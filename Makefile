# Build/test entry points. CI (.github/workflows/ci.yml) runs exactly these
# targets, so a green `make build test race` locally predicts a green CI run.

GO ?= go

.PHONY: build lint vulncheck test test-full tables race chaos fuzz-smoke bench trace-smoke cache-warm daemon-smoke daemon-trace-smoke

# Compile everything and vet it.
build:
	$(GO) build ./...
	$(GO) vet ./...

# Formatting and static analysis beyond vet: any file gofmt would change
# fails the target, and so does any function outside _test.go files that
# only tests reach (TestNoTestOnlyCode type-checks both modules; a few
# seconds). staticcheck is not vendored (no new module dependencies); CI
# installs it, and locally the target degrades to gofmt + vet with a notice
# when the binary is absent.
lint:
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "lint: gofmt -l lists files that need formatting:"; echo "$$unformatted"; exit 1; \
	fi
	$(GO) vet ./...
	$(GO) test -count=1 -run '^TestNoTestOnlyCode$$' .
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "lint: staticcheck not installed; ran gofmt, go vet and TestNoTestOnlyCode only (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
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

# Fast suite: skips the heavier golden cases, then runs the quick-tables
# smoke test on its own (it skips itself under -short, which keeps `make race`
# fast), so the evaluation path through the public engine runs in CI.
# The benchmark harness is a nested module that ./... does not reach; vetting
# and testing it here catches public-API changes that would break it.
test:
	$(GO) test -short -timeout 10m ./...
	$(GO) test -count=1 -run '^TestQuickTables$$' ./internal/experiments
	cd tsbench && $(GO) vet . && $(GO) test .

# Full tier-1 suite, including the experiments smoke test.
test-full:
	$(GO) test -timeout 20m ./...

# Full Tables 1 and 2 of the evaluation (16 circuits x 3 algorithms through
# turbosyn.Synthesize; about 6 s on 2 CPUs). Table 1 fails when TurboSYN's
# phi is worse than TurboMap's or FlowSYN-s's on any row; `make test` checks
# the same invariants on the quick suite only.
tables:
	$(GO) run ./cmd/experiments -table 1,2

# Race detector over the fast suite (covers the parallel label engine and
# its dataflow component scheduler, the sharded decomposition cache and the
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
	$(GO) test -race -count 2 ./internal/faultinject ./internal/decomp/cachelog ./internal/recordlog
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
		-run 'TestDaemonSmoke|TestDaemonRecovery|TestDaemonDrainRejectsSubmit|TestDaemonByteIdentity|TestDaemonMemBudgetAdmission|TestProgressStream|TestDaemonInvalidOptions' \
		./internal/server
	$(GO) test -race -count=1 ./internal/jobqueue

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

# Native fuzzing smoke: 30s of coverage-guided input generation against the
# BLIF reader's parse-or-error-cleanly contract, 30s against the record log
# loader (any file loads without error to a re-framable valid prefix), then
# 30s against the word-parallel Roth-Karp extraction (equal to the bit-serial
# reference, and the decomposition recomposes to the input), then 30s against
# cut witnesses (wherever one holds, a fresh expansion admits a K-cut), then
# 30s against the K-cut flow kernel (same flow value, verdict, cut and cone as
# a generic split-network Edmonds-Karp), then 30s against cone simulation
# (every cone function equal to composing the gates' truth tables), then 30s
# against the PLD grounding certificate (the same verdict as the n^2 rule on
# random small sequential circuits).
fuzz-smoke:
	$(GO) test -fuzz FuzzReadBLIF -fuzztime 30s -run '^$$' ./internal/netlist
	$(GO) test -fuzz FuzzRecordlogLoad -fuzztime 30s -run '^$$' ./internal/recordlog
	$(GO) test -fuzz FuzzRothKarp -fuzztime 30s -run '^$$' ./internal/decomp
	$(GO) test -fuzz FuzzCutWitness -fuzztime 30s -run '^$$' ./internal/core
	$(GO) test -fuzz FuzzKCut -fuzztime 30s -run '^$$' ./internal/cut
	$(GO) test -fuzz FuzzConeFunction -fuzztime 30s -run '^$$' ./internal/core
	$(GO) test -fuzz FuzzGrounding -fuzztime 30s -run '^$$' ./internal/core

# The repository benchmark (tsbench/, BENCHMARK.json): both workloads, plain
# and traced, on seed 1 for 5 s each. tsbench builds turbosyn and turbosynd
# from this checkout into .bench_build/, checks every output and exits
# non-zero on any failed check; a traced run also fails when a metric that
# BENCHMARK.json lists goes unmeasured. Each run's stdout (its "# context"
# machine line, the metrics and the {"correct": ...} result) is appended to
# bench.txt, which CI uploads.
bench:
	rm -f bench.txt
	for w in giant_scc daemon_mix; do for t in 0 1; do \
		bash -o pipefail -c "bash tsbench/run.sh --workload $$w --seed 1 --seconds 5 --trace $$t | tee -a bench.txt" || exit 1; \
	done; done

# Sample observability artifact: synthesize one suite circuit with tracing,
# logging and progress on, leaving trace.json for inspection (CI uploads it;
# load it in https://ui.perfetto.dev or chrome://tracing). The same circuit
# through FlowSYN-s must trace the engine too: its census has to hold probe
# and component spans.
trace-smoke:
	$(GO) run ./cmd/benchgen -dir benchmarks
	$(GO) run ./cmd/turbosyn -trace trace.json -log-json -o /dev/null benchmarks/bbara.blif
	@$(GO) run ./cmd/tracecheck trace.json
	$(GO) run ./cmd/turbosyn -alg flowsyns -trace trace-flowsyns.json -o /dev/null benchmarks/bbara.blif
	@census=$$($(GO) run ./cmd/tracecheck trace-flowsyns.json) && echo "$$census" && \
		for span in probe component; do \
			echo "$$census" | grep -Eq "^  $$span +[1-9]" || { echo "trace-smoke: FlowSYN-s trace has no $$span spans"; exit 1; }; \
		done
