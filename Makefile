# Tier-1 verification plus the benchmark smoke target.
#
# NB on bench-gate baselines: BENCH_controller.json must be recorded by
# `make bench-json` ON THE GATE MACHINE (the CI runner class that
# executes bench-gate), at GOMAXPROCS=1 like the gate itself measures.
# A baseline recorded on a different machine class bakes its clock into
# every later comparison: the 15% time tolerance absorbs runner-to-
# runner noise, not a hardware generation. When a PR intentionally
# moves performance, refresh the baseline from the gate job's uploaded
# BENCH_current artifact (or re-run make bench-json on that hardware)
# rather than from a laptop.
#
#   make            - build + lint + test (what CI runs per PR)
#   make lint       - go vet + cmd/dcalint (the custom invariant
#                     analyzers: determinism, zero-alloc, exhaustive
#                     enums, simtime units, rescache/trace errors)
#                     + golangci-lint when installed (CI always runs it)
#   make race       - full test suite under the race detector (CI job)
#   make faults     - fault-model suite under -race: cachefs fault
#                     injection, the rescache crash/corruption tests,
#                     and the exp panic/watchdog/keep-going,
#                     warm-group failure, SIGKILL-recovery and
#                     concurrent-cache-handle tests (CI job)
#   make fuzz-short - short fuzz pass over the trace decoder, the
#                     result-cache reader, and the event kernel vs its
#                     heap oracle (CI job)
#   make sweep-smoke - run the example sweep spec end to end against the
#                      persistent result cache (CI job)
#   make docs-check - documentation gate (CI job, cmd/docscheck):
#                     markdown link integrity over README /
#                     ARCHITECTURE / docs / examples, plus the guard
#                     that every registered scheduling policy has a
#                     row in docs/adding-a-policy.md's policy table
#   make bench-short - one pass over the substrate microbenchmarks and
#                      one small figure benchmark, with allocation stats
#   make bench-json  - run the guarded benchmarks (Fig8, SimOneRun,
#                      ChannelIssue, and the three event-kernel
#                      microbenchmarks) with -benchmem and emit
#                      $(BENCH_OUT) (default BENCH_controller.json,
#                      archived by CI per PR)
#   make bench-gate  - re-run the guarded benchmarks and fail if they
#                      regressed past tolerance vs the checked-in
#                      BENCH_controller.json (CI job, cmd/benchdiff)
#   make bench-parallel - cold-cache Fig8 A/B at -j 1 vs -j 8, emitted
#                      as BENCH_parallel.json (the parallel-engine
#                      speedup record)
#   make determinism - render the Fig8 smoke table at -j 1 and -j 8
#                      under -race and require byte-identical output,
#                      then require a -keep-going sweep with injected
#                      failures to report them byte-identically at
#                      every worker count, then require a -seeds 3
#                      replicated sweep to render byte-identical
#                      mean ±CI tables at -j 1 and -j 8 (CI job)

GO ?= go
BENCH_OUT ?= BENCH_controller.json

.PHONY: all build vet lint test race faults fuzz-short sweep-smoke docs-check bench-short bench-json bench-gate bench-parallel determinism ci

all: ci

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Static analysis gate: go vet, then the repo's own analyzer suite
# (cmd/dcalint — see README "Static analysis"), then golangci-lint if
# present (CI installs it; locally it is optional). `go run` caches the
# dcalint build in the ordinary Go build cache.
lint: vet
	$(GO) run ./cmd/dcalint ./...
	@if command -v golangci-lint >/dev/null 2>&1; then \
		golangci-lint run; \
	else \
		echo "golangci-lint not installed; skipping (the CI lint job runs it)"; \
	fi

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Fault-model suite under the race detector: the cachefs injector's own
# tests, the rescache crash/corruption/concurrent-Put tests, and in
# internal/exp the SIGKILL kill-recovery test, the two-handle concurrent
# runner test (duplicate work, never a wrong result), the
# panic-isolation, watchdog, and keep-going tests, and the warm-group
# failure tests (a failing member never hands its warm state on). This
# is the "nothing wedges, nothing lies" gate — see README "Failure
# model".
faults:
	$(GO) test -race -count=1 ./internal/cachefs ./internal/rescache
	$(GO) test -race -count=1 -run 'Fault|Panic|Timeout|KeepGoing|Kill|CacheFS|ConcurrentHandles|WarmGroup' ./internal/exp

# Short fuzz pass over the byte-level readers and the event kernel: a
# malformed trace must never panic the simulator, an arbitrary cache
# entry must never be trusted unless its envelope fully verifies
# (FuzzCacheGet re-checks every accepted entry against an independent
# oracle), and an arbitrary op program must drive the timing wheel and
# the retired 4-ary heap to the exact same dispatch sequence
# (FuzzEngineOps). Seed corpora live in
# internal/{trace,rescache,event}/testdata/fuzz; CI archives grown
# corpora.
fuzz-short:
	$(GO) test ./internal/trace -run '^$$' -fuzz 'FuzzDecoder' -fuzztime 30s
	$(GO) test ./internal/rescache -run '^$$' -fuzz 'FuzzCacheGet' -fuzztime 30s
	$(GO) test ./internal/event -run '^$$' -fuzz 'FuzzEngineOps' -fuzztime 30s

# End-to-end sweep smoke: evaluate the example declarative spec at the
# test scale through the persistent result cache (CI restores the cache
# between runs, so warm invocations simulate nothing).
sweep-smoke:
	$(GO) run ./cmd/dcasim sweep -spec examples/sweep/flushing_factor.json -cache .dcasim-cache

# Documentation gate: relative markdown links (files and #anchors) must
# resolve across README / ARCHITECTURE / docs / examples, and every
# registered scheduling policy needs a row in the authoring guide's
# policy table (docscheck links the full registry to compare).
docs-check:
	$(GO) run ./cmd/docscheck

# Short benchmark pass: substrate microbenchmarks at a real benchtime
# (their alloc counts are regression-guarded), figure benchmarks at one
# iteration just to prove the drivers run.
bench-short:
	$(GO) test -run '^$$' -bench 'BenchmarkEventEngine|BenchmarkChannelIssue|BenchmarkWorkloadGen' -benchmem -benchtime 0.2s .
	$(GO) test -run '^$$' -bench 'BenchmarkFig8$$|BenchmarkSimOneRun' -benchmem -benchtime 1x .

# Perf trajectory: the whole-run benchmarks the scheduler and event-
# kernel reworks target, plus the event microbenchmarks that isolate
# each wheel regime (uniform cascade, DRAM-clustered fast path,
# far-future spill), emitted as JSON so CI diffs are machine-readable.
# Fig8 runs few iterations (it is a whole-evaluation sweep); the
# cheaper benchmarks run more for stability.
# Each run appends to a scratch file and failures abort the target (no
# pipeline, so a failing benchmark cannot hide behind benchjson's exit).
bench-json:
	@rm -f bench_controller.out
	$(GO) test -run '^$$' -bench 'BenchmarkFig8$$' -benchmem -benchtime 2x . >> bench_controller.out
	$(GO) test -run '^$$' -bench 'BenchmarkSimOneRun$$' -benchmem -benchtime 20x . >> bench_controller.out
	$(GO) test -run '^$$' -bench 'BenchmarkChannelIssue$$' -benchmem -benchtime 0.2s . >> bench_controller.out
	$(GO) test -run '^$$' -bench 'BenchmarkEventUniform$$|BenchmarkEventDRAMClustered$$|BenchmarkEventSpill$$' -benchmem -benchtime 0.2s . >> bench_controller.out
	$(GO) run ./cmd/benchjson < bench_controller.out > $(BENCH_OUT)
	@rm -f bench_controller.out
	@cat $(BENCH_OUT)

# Perf-regression gate: measure the guarded benchmarks into a scratch
# report and diff it against the checked-in baseline (cmd/benchdiff
# defaults: >15% time/op fails, allocs/op may grow at most 1% — zero
# stays strict). GOMAXPROCS is pinned to 1 so the measurement is the
# serial path the baseline records: otherwise Fig8 (whose worker pool
# defaults to the core count) would run faster on any multi-core
# machine and a genuine serial regression could hide inside the
# parallel speedup, and its allocation count would skew with the pool's
# goroutine count. Cross-machine clock differences are what the 15%
# time tolerance absorbs; refresh the baseline (make bench-json) when a
# PR intentionally moves it.
bench-gate:
	GOMAXPROCS=1 $(MAKE) bench-json BENCH_OUT=BENCH_current.json
	$(GO) run ./cmd/benchdiff BENCH_controller.json BENCH_current.json
	@rm -f BENCH_current.json

# Parallel-engine speedup record: the same cold-cache Fig8 evaluation at
# one worker and at eight, A/B in one pass so the pair shares machine
# conditions. The report carries the recording machine's core count
# ("cpus"): the ratio only shows scaling when the machine has cores to
# scale onto.
bench-parallel:
	@rm -f bench_parallel.out
	$(GO) test -run '^$$' -bench 'BenchmarkFig8J1$$|BenchmarkFig8J8$$' -benchmem -benchtime 2x . >> bench_parallel.out
	$(GO) run ./cmd/benchjson < bench_parallel.out > BENCH_parallel.json
	@rm -f bench_parallel.out
	@cat BENCH_parallel.json

# Parallel determinism: the Fig8 smoke table must render byte-identical
# at -j 1 and -j 8, with the race detector watching the worker pool.
# The second half asserts the same contract for the failure path: a
# -keep-going sweep whose ghost-trace points fail at runtime (see
# testdata/sweep_keepgoing.json) must report the joined failures
# byte-identically at every worker count. The grep guard pins the
# expected failure count, so a compile error or an accidentally-green
# sweep cannot slip through the `|| true` that tolerates the intended
# nonzero exit. The third half extends the contract to seeded
# replication: a -seeds 3 sweep (testdata/sweep_seeds.json) must render
# its mean ±CI95 table byte-identically at -j 1 and -j 8 — replicate
# fan-out multiplies the points the pool dispatches, so it is the
# stress case for in-order result commitment — and the ± grep guard
# proves the CI columns actually rendered (a silently-degenerate
# single-replicate run would also pass cmp).
determinism:
	$(GO) run -race ./cmd/experiments -scale test -mixes 2 -only fig8 -j 1 -format text > .det-j1.txt
	$(GO) run -race ./cmd/experiments -scale test -mixes 2 -only fig8 -j 8 -format text > .det-j8.txt
	cmp .det-j1.txt .det-j8.txt
	@rm -f .det-j1.txt .det-j8.txt
	DCASIM_CACHE= $(GO) run -race ./cmd/dcasim sweep -spec testdata/sweep_keepgoing.json -keep-going -j 1 > .det-kg-j1.txt 2>&1 || true
	DCASIM_CACHE= $(GO) run -race ./cmd/dcasim sweep -spec testdata/sweep_keepgoing.json -keep-going -j 8 > .det-kg-j8.txt 2>&1 || true
	cmp .det-kg-j1.txt .det-kg-j8.txt
	test "$$(grep -c 'no-such-trace' .det-kg-j1.txt)" = "3"
	@rm -f .det-kg-j1.txt .det-kg-j8.txt
	DCASIM_CACHE= $(GO) run -race ./cmd/dcasim sweep -spec testdata/sweep_seeds.json -seeds 3 -j 1 > .det-seeds-j1.txt
	DCASIM_CACHE= $(GO) run -race ./cmd/dcasim sweep -spec testdata/sweep_seeds.json -seeds 3 -j 8 > .det-seeds-j8.txt
	cmp .det-seeds-j1.txt .det-seeds-j8.txt
	grep -q '±' .det-seeds-j1.txt
	@rm -f .det-seeds-j1.txt .det-seeds-j8.txt
	@echo "parallel determinism OK: tables, keep-going failure reports, and -seeds 3 CI tables byte-identical at -j 1 and -j 8"

ci: build lint test
