# Tier-1 verification, the CI gates, and the same-machine benchmark A/B.
#
#   make            - build + lint + test (what CI runs per PR)
#   make lint       - go vet + cmd/dcalint (the custom invariant
#                     analyzers: determinism, zero-alloc, exhaustive
#                     enums, simtime units, rescache errors)
#                     + golangci-lint when installed (CI always runs it)
#   make race       - full test suite under the race detector (CI job)
#   make faults     - fault-model suite under -race: cachefs fault
#                     injection, the rescache crash/corruption tests,
#                     and the exp panic/watchdog/keep-going,
#                     warm-group failure, SIGKILL-recovery and
#                     concurrent-cache-handle tests (CI job)
#   make fuzz-short - short fuzz pass over the result-cache reader and
#                     its payload decoder, the config and sweep-spec
#                     loaders, config patching vs its JSON-merge
#                     oracle, the canonical config encoder vs
#                     encoding/json, the event kernel vs its heap
#                     oracle, the DRAM-cache tag store and the SRAM
#                     cache vs their stamp-based oracles, and whole
#                     simulations of fuzzed configs (CI job)
#   make sweep-smoke - run every example sweep spec end to end against
#                      the persistent result cache (CI job)
#   make docs-check - documentation gate (CI job, cmd/docscheck):
#                     markdown link and anchor integrity over README /
#                     ARCHITECTURE / ROADMAP / examples
#   make bench-short - one pass over the substrate microbenchmarks, one
#                      small figure benchmark and the config, result-cache,
#                      SRAM-cache, DRAM-cache-contents and simulation
#                      layer benchmarks, with allocation stats
#   make ab         - same-machine A/B of the repository benchmark
#                     (bench/): ten interleaved pairs of runs of BASE
#                     (default: the merge-base with main) and of the
#                     working tree, judged by `go run ./bench compare`;
#                     fails on any regressed row (CI job)
#   make determinism - render every figure at test scale over two mixes
#                      at -j 1 and -j 8 under -race and require
#                      byte-identical output, then require a -seeds 3
#                      replicated sweep to render byte-identical
#                      mean ±CI tables at -j 1 and -j 8 (CI job)

GO ?= go
BASE ?= $(shell git merge-base HEAD main 2>/dev/null)

.PHONY: all build vet lint test race faults fuzz-short sweep-smoke docs-check bench-short ab determinism ci

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
# panic-isolation and watchdog tests, the keep-going tests (a sweep's
# joined failures byte-identical at 1 and 8 workers, and its successes
# resumable from the cache), and the warm-group failure tests (a failing member never hands its warm state on). This
# is the "nothing wedges, nothing lies" gate — see README "Failure
# model".
faults:
	$(GO) test -race -count=1 ./internal/cachefs ./internal/rescache
	$(GO) test -race -count=1 -run 'Fault|Panic|Timeout|KeepGoing|Kill|CacheFS|ConcurrentHandles|WarmGroup' ./internal/exp

# Short fuzz pass over the byte-level readers, the user-supplied config
# and sweep-spec files, the event kernel and the simulator: an
# arbitrary cache entry must never be trusted unless it fully verifies (FuzzCacheGet re-checks every
# accepted entry against an independent oracle), an arbitrary result
# payload must decode without panicking, in memory bounded by its
# length, and re-encode to exactly itself when accepted
# (FuzzDecodeResult), an arbitrary
# config file or sweep spec must load and resolve or fail with an error
# (FuzzConfigLoad, FuzzSweepSpec), a chain of config patches must agree
# with the JSON-merge implementation it replaced and never write through
# to its base (FuzzPatch), the canonical config encoder behind the
# cache key must write exactly encoding/json's bytes and fail where it
# fails (FuzzCanonical), an arbitrary op program must
# drive the timing wheel and the retired 4-ary heap to the exact same
# dispatch sequence (FuzzEngineOps), and an arbitrary op program must
# get the same answers from the packed DRAM-cache tag store as from its
# stamp-based oracle, journal rollbacks included (FuzzTagStore), and
# from the SRAM cache as from its stamp-based oracle, copies and reuse
# included (FuzzCache), and a config that passes Validate must simulate
# to a finite positive IPC per core with consistent counters (FuzzRun).
# Checked-in corpora live in internal/<pkg>/testdata/fuzz; CI archives
# grown corpora.
fuzz-short:
	$(GO) test ./internal/rescache -run '^$$' -fuzz 'FuzzCacheGet' -fuzztime 30s
	$(GO) test ./internal/rescache -run '^$$' -fuzz 'FuzzDecodeResult' -fuzztime 30s
	$(GO) test ./internal/event -run '^$$' -fuzz 'FuzzEngineOps' -fuzztime 30s
	$(GO) test ./internal/config -run '^$$' -fuzz 'FuzzConfigLoad' -fuzztime 30s
	$(GO) test ./internal/config -run '^$$' -fuzz 'FuzzPatch' -fuzztime 30s
	$(GO) test ./internal/config -run '^$$' -fuzz 'FuzzCanonical' -fuzztime 30s
	$(GO) test ./internal/exp -run '^$$' -fuzz 'FuzzSweepSpec' -fuzztime 30s
	$(GO) test ./internal/dcache -run '^$$' -fuzz 'FuzzTagStore' -fuzztime 30s
	$(GO) test ./internal/cache -run '^$$' -fuzz 'FuzzCache' -fuzztime 30s
	$(GO) test ./internal/sim -run '^$$' -fuzz 'FuzzRun' -fuzztime 30s

# End-to-end sweep smoke: evaluate every example declarative spec at
# the test scale through the persistent result cache (CI restores the
# cache between runs, so warm invocations simulate nothing).
sweep-smoke:
	@set -e; for spec in examples/sweep/*.json; do \
		echo "$(GO) run ./cmd/dcasim sweep -spec $$spec -cache .dcasim-cache"; \
		$(GO) run ./cmd/dcasim sweep -spec $$spec -cache .dcasim-cache; \
	done

# Documentation gate: relative markdown links (files and #anchors) must
# resolve across README / ARCHITECTURE / ROADMAP / examples.
docs-check:
	$(GO) run ./cmd/docscheck

# Short benchmark pass: substrate microbenchmarks at a real benchtime,
# figure benchmarks and the layer benchmarks (config patch, apply and
# hash; result-cache get and put; the warm-up's two loops, L1 and L2
# access and DRAM-cache warm calls per organization; warm-up of one and of both
# organizations, and the timed region) at one iteration just to prove
# the drivers run. Nothing here is gated:
# tier-1 tests pin the allocation counts of the whole run, Fig. 8,
# Channel.Issue and the event wheel, and `make ab` measures time.
bench-short:
	$(GO) test -run '^$$' -bench 'BenchmarkEventEngine|BenchmarkChannelIssue|BenchmarkWorkloadGen' -benchmem -benchtime 0.2s .
	$(GO) test -run '^$$' -bench 'BenchmarkFig8$$|BenchmarkSimOneRun' -benchmem -benchtime 1x .
	$(GO) test -run '^$$' -bench . -benchmem -benchtime 1x ./internal/config ./internal/rescache ./internal/cache ./internal/dcache ./internal/sim

# Same-machine A/B of the repository benchmark (bench/ and
# BENCHMARK.json): BASE is checked out as a git worktree under .ab/base,
# and for k = 1..10 each tree runs `sh bench/run.sh -seed k` once, the
# base first on odd k and the working tree first on even k, so both
# sides share the host's drift. A run covers every workload at its 20 s
# window, about 100 s, so the target takes about 35 minutes. Ten pairs
# is the fewest a verdict of improved needs, so it is fixed. The 20
# reports and the verdict table of `go run ./bench compare` stay in
# .ab/; the worktree is removed even when a run fails. Any regressed
# row fails the target. Unresolved rows and FLAG lines (a sim_digest or
# model counter that differs between same-seed runs) are printed but do
# not fail it: a modelling fix moves digests on purpose.
ab:
	@test -n "$(BASE)" || { echo "make ab: no merge-base with main; set BASE=<rev>" >&2; exit 1; }
	rm -rf .ab
	git worktree prune
	git worktree add --detach .ab/base $(BASE)
	@set -e; trap 'git worktree remove --force .ab/base' EXIT; \
	for k in 1 2 3 4 5 6 7 8 9 10; do \
		order="a b"; [ $$((k % 2)) -eq 1 ] || order="b a"; \
		for side in $$order; do \
			dir=.; [ $$side = b ] || dir=.ab/base; \
			echo "make ab: pair $$k of 10, $$side ($$dir)" >&2; \
			(cd $$dir && sh bench/run.sh -seed $$k) > .ab/$$side$$k.json; \
		done; \
	done
	$(GO) run ./bench compare \
		-a .ab/a1.json,.ab/a2.json,.ab/a3.json,.ab/a4.json,.ab/a5.json,.ab/a6.json,.ab/a7.json,.ab/a8.json,.ab/a9.json,.ab/a10.json \
		-b .ab/b1.json,.ab/b2.json,.ab/b3.json,.ab/b4.json,.ab/b5.json,.ab/b6.json,.ab/b7.json,.ab/b8.json,.ab/b9.json,.ab/b10.json \
		> .ab/verdict.txt
	@cat .ab/verdict.txt
	@! grep -q ' regressed$$' .ab/verdict.txt || { echo "make ab: regressed against $(BASE)" >&2; exit 1; }

# Parallel determinism: every table and figure (cmd/experiments at test
# scale over two mixes) must render byte-identical at -j 1 and -j 8,
# with the race detector watching the worker pool. Warm groups span
# both organizations, so figures with one organization (fig18 SA,
# fig19 DM) and with both change how runs are dispatched; rendering
# them all covers each shape. The second half extends the contract to
# seeded replication: a -seeds 3 sweep (testdata/sweep_seeds.json) must
# render its mean ±CI95 table byte-identically at -j 1 and -j 8 —
# replicate fan-out multiplies the points the pool dispatches, so it is
# the stress case for in-order result commitment — and the ± grep guard
# proves the CI columns actually rendered (a silently-degenerate
# single-replicate run would also pass cmp). The failure path's half of
# the contract, a keep-going sweep's joined failures, is tested in
# internal/exp and runs under `make faults`.
determinism:
	DCASIM_CACHE= $(GO) run -race ./cmd/experiments -scale test -mixes 2 -j 1 -format text > .det-j1.txt
	DCASIM_CACHE= $(GO) run -race ./cmd/experiments -scale test -mixes 2 -j 8 -format text > .det-j8.txt
	cmp .det-j1.txt .det-j8.txt
	@rm -f .det-j1.txt .det-j8.txt
	DCASIM_CACHE= $(GO) run -race ./cmd/dcasim sweep -spec testdata/sweep_seeds.json -seeds 3 -j 1 > .det-seeds-j1.txt
	DCASIM_CACHE= $(GO) run -race ./cmd/dcasim sweep -spec testdata/sweep_seeds.json -seeds 3 -j 8 > .det-seeds-j8.txt
	cmp .det-seeds-j1.txt .det-seeds-j8.txt
	grep -q '±' .det-seeds-j1.txt
	@rm -f .det-seeds-j1.txt .det-seeds-j8.txt
	@echo "parallel determinism OK: tables and -seeds 3 CI tables byte-identical at -j 1 and -j 8"

ci: build lint test
