# Development targets. The repo is stdlib-only Go; everything here wraps
# the standard toolchain.
#
# check is the CI gate and runs in this order:
#   1. build  — the whole tree compiles;
#   2. lint   — pqlint's determinism invariants (fast, fails early);
#   3. chaos  — the fault-injection acceptance sweep;
#   4. shards — the determinism gate of the engine's one parallel phase
#               (bit-identity at shard widths 1/2/4/8 against a serial run);
#   5. quick-check — `pqexp all` reproduces the data lines of the recorded
#               results_quick.txt byte for byte;
#   6. spot-check — the same for the SINR/disk/AODV pqsim runs recorded in
#               results_sinr_spot.txt, which quick-check's ideal stack misses;
#   7. load-smoke, adapt-smoke — two of the four tiers (an invariant
#               violation is fatal in all of them), their tables diffed
#               against the recorded results_tiers.txt;
#   8. vet    — the standard toolchain's analyzers;
#   9. race   — the short test set under the race detector, which enforces
#               the per-engine isolation invariant (sim.TestEnginesIsolated
#               and the parallel-vs-serial sweep determinism tests in
#               internal/experiment run concurrent full stacks).

GO ?= go

.PHONY: build test check lint loc bench bench-sweep bench-digest bench-digests quick quick-check spot spot-runs spot-check tiers chaos shards mega-smoke mega-bench load-smoke adapt-smoke giga-smoke

build:
	$(GO) build ./...

test:
	$(GO) test ./...

check: build lint chaos shards quick-check spot-check load-smoke adapt-smoke
	$(GO) vet ./...
	$(GO) test -race -short ./...

# lint runs pqlint, the determinism- and invariant-enforcing static
# analysis suite (internal/lint): no global math/rand, no wall clock or pid
# in simulation code, no order-sensitive map iteration — plus the
# whole-program, call-graph-aware analyzers: parsafe (parallel-phase purity)
# and noalloc (annotated hot paths must not allocate along the call chain,
# up to the calls that declare a hand-off). Suppressions are reasoned
# //pqlint:allow directives, and one that suppresses nothing is a finding;
# see DESIGN.md §8.
# On a clean tree pqlint emits its wall-time benchmark line, which folds
# into BENCH.json; on findings there is no bench line, benchjson errors,
# and the pipeline (hence the target) fails with the findings echoed.
lint:
	$(GO) run ./cmd/pqlint -bench ./... | $(GO) run ./cmd/benchjson -merge -out BENCH.json

# loc prints the size every design PR quotes: non-test Go lines outside
# testdata, per package directory and in total. bench/ (the repository's
# benchmark, frozen between benchmark PRs) gets its own line and stays out of
# the total.
LOC_FIND = -name '*.go' -not -name '*_test.go' -not -path '*/testdata/*'

loc:
	@for d in $$(find . $(LOC_FIND) -not -path './bench/*' -exec dirname {} \; | sort -u) bench; do \
		printf '%7d %s\n' $$(find $$d -maxdepth 1 $(LOC_FIND) -exec cat {} + | wc -l) $${d#./}; \
	done
	@printf '%7d total (without bench)\n' $$(find . $(LOC_FIND) -not -path './bench/*' -exec cat {} + | wc -l)

# chaos runs the fault-injection acceptance sweep: ≥50 randomized fault
# schedules with the invariant checkers armed (skipped under -short, so it
# gets its own target; see internal/experiment/chaos_test.go).
chaos:
	$(GO) test -run 'TestChaos' -count=1 ./internal/experiment

# shards runs the sharded-phase determinism gate (DESIGN.md §15): a full
# experiment over the route cache's parallel prefetch path must render
# bit-identically with sharding off and at widths 1/2/4/8, plus the mid-run
# SetShards resize test. CI additionally race-stresses single widths via
# PQ_SHARDS_STRESS.
shards:
	$(GO) test -run 'TestShards' -count=1 ./internal/experiment

# bench runs the full benchmark suite (figure pipelines, substrate
# micro-benchmarks, ablations) with allocation reporting and converts the
# output into the committed benchmark trajectory BENCH.json (ns/op, B/op,
# allocs/op, custom metrics per benchmark). Compare against the committed
# file to spot perf or allocation regressions. Takes a few minutes: the
# default benchtime is what lets the pooled hot paths reach their
# steady-state (zero-alloc) numbers — CI's smoke step runs the same suite
# at -benchtime=1x as a cheap does-it-run gate.
bench:
	$(GO) test -bench=. -benchmem -run='^$$' . > bench.out || (cat bench.out; rm -f bench.out; exit 1)
	$(GO) run ./cmd/benchjson -out BENCH.json < bench.out
	rm -f bench.out

# bench-digest gates "host-side only" claims mechanically. The repository's
# benchmark (bench/, BENCHMARK.json) folds every simulated quantity of a
# workload's timed phase — event count, message and drop counters, hop
# latencies, every operation's outcome and latency — into one number,
# sim.digest, which is a pure function of (workload, seed, seconds). A change
# that only makes the host faster must leave all four digests equal to the
# committed BENCH_DIGESTS.txt (seed 1, -seconds 10: the benchmark's own
# defaults); a change that deliberately alters simulated behaviour re-records
# the file in the same commit with `make -s bench-digests > BENCH_DIGESTS.txt`
# and says why. Takes about three minutes (one untraced and one traced run
# per workload).
BENCH_WORKLOADS = paper-sinr-aodv ideal-walk-read ideal-routed-mixed scale-sinr-churn

bench-digests:
	@for w in $(BENCH_WORKLOADS); do \
		echo "$$w $$($(GO) run ./bench -workload $$w -trace 1 -json | sed -n 's/.*"sim.digest":{"value":\([0-9]*\).*/\1/p')"; \
	done

bench-digest:
	@$(MAKE) -s bench-digests | diff BENCH_DIGESTS.txt - || \
		{ echo "bench-digest: sim.digest differs from BENCH_DIGESTS.txt (<: committed, >: this tree): the change is not host-side only"; exit 1; }

# tier-run runs `pqexp $(2) $(1)` into $(1).out — a tier exits nonzero on an
# invariant violation or a leaked op (or a crash), which fails the target with
# the output shown — and then folds its go-bench lines into BENCH.json. All
# four smoke targets go through it; the caller removes $(1).out.
define tier-run
	$(GO) run ./cmd/pqexp $(2) $(1) > $(1).out || { cat $(1).out; rm -f $(1).out; exit 1; }
	$(GO) run ./cmd/benchjson -merge -out BENCH.json < $(1).out
endef

# mega-smoke runs the 10k-node scale scenario (DESIGN.md §12) on a
# shortened horizon: SINR/DCF with cell-noise interference, churn and a
# fault schedule live, invariant checkers armed and fatal. No -race — the
# point is that 10k nodes complete in CI time — and the go-bench metrics line
# (wall clock, allocations, peak heap) is folded into BENCH.json so the
# scale trajectory rides along with the micro-benchmarks.
mega-smoke:
	$(call tier-run,mega,-short)
	@rm -f mega.out

# mega-bench records the full-horizon 10k run serial and at -shards 2 — the
# A/B behind DESIGN.md §15's "what the knob is worth". Each line's name ends
# in -<GOMAXPROCS>, so the entries say which host width they came from.
mega-bench:
	$(GO) run ./cmd/pqexp mega | $(GO) run ./cmd/benchjson -merge -out BENCH.json
	$(GO) run ./cmd/pqexp -shards 2 mega | $(GO) run ./cmd/benchjson -merge -out BENCH.json

# giga-smoke runs the giga tier (DESIGN.md §15: oracle neighbors, lazy
# membership, route cache, sharded prefetch) at a CI-sized 25k nodes on the
# shortened horizon, churn/faults/invariants armed and fatal, 4 shards wide.
# The full 100k run is `pqexp giga`; this is the does-it-scale gate, and its
# wall-clock/alloc/peak-heap line folds into BENCH.json like mega-smoke's.
giga-smoke:
	$(call tier-run,giga,-short -n 25000 -shards 4)
	@rm -f giga.out

# tiers records what `pqexp -short load` and `pqexp -short adapt` print apart
# from their go-bench lines: the tier tables, free of wall-clock fields by
# construction. results_quick.txt covers `pqexp all` only; this file is the
# same gate for the two tiers whose smoke runs are part of check. A refactor
# must pass it untouched; a change that means to move a tier table re-records
# the file with `make tiers` in the same commit and says which rows and why.
tiers:
	@for t in load adapt; do $(GO) run ./cmd/pqexp -short $$t; done | grep -v '^Benchmark' > results_tiers.txt

# tier-smoke runs tier $(1) on its smoke horizon (tier-run: a violation fails
# the target) and diffs everything but its go-bench lines against the tier's
# own tables in results_tiers.txt: from its first "## $(1)" title up to the
# next tier's.
define tier-smoke
	$(call tier-run,$(1),-short)
	@awk '/^## /{on = ($$2 == "$(1)")} on' results_tiers.txt | diff -I '^Benchmark' - $(1).out || \
		{ echo "$(1)-smoke: pqexp -short $(1) differs from results_tiers.txt (<: recorded, >: this tree)"; rm -f $(1).out; exit 1; }
	@rm -f $(1).out
endef

# load-smoke runs the open-loop workload figure (DESIGN.md §13) on a
# shortened horizon: Poisson and MMPP arrivals against every strategy mix
# with the invariant checkers armed (any violation — including a pending-op
# leak — makes the run nonzero and fails check). The per-mix throughput and
# latency-percentile lines fold into BENCH.json alongside the other suites.
load-smoke:
	$(call tier-smoke,load)

# adapt-smoke runs the adaptive-sizing chaos figure (DESIGN.md §14) on a
# shortened horizon: static vs closed-loop quorum sizing under mass-join,
# mass-failure, and ramp drifts, with the invariant checkers (incl. the
# controller's resize-bounds watch and the pending-op drain) armed and
# fatal. The per-drift settled-intersection and message-cost lines fold
# into BENCH.json alongside the other suites.
adapt-smoke:
	$(call tier-smoke,adapt)

# bench-sweep records only the parallel sweep executor's scaling (flat on a
# 1-core host; ~2× at parallel=2 on two cores).
bench-sweep:
	$(GO) test -bench=BenchmarkParallelSweep -benchtime=1x -run='^$$' . | $(GO) run ./cmd/benchjson -merge -out BENCH.json

# quick regenerates the recorded quick-profile results (with per-figure
# wall clock and effective parallelism).
quick:
	$(GO) run ./cmd/pqexp all > results_quick.txt

# quick-check gates "the recorded numbers stay put": it regenerates the
# quick-profile figures (about a minute and a half on one core) and diffs
# them against the committed results_quick.txt, ignoring only the per-figure
# `# … wall clock` lines. A refactor must pass it untouched; a change that
# means to move a figure re-records the file with `make quick` in the same
# commit and says which tables moved and why.
quick-check:
	@$(GO) run ./cmd/pqexp all | diff -I '^# .* wall clock' results_quick.txt - || \
		{ echo "quick-check: pqexp all differs from results_quick.txt (<: recorded, >: this tree)"; exit 1; }

# spot records results_sinr_spot.txt, the gate for what quick-check's ideal
# stack never runs: the SINR and disk radios, DCF, AODV, mobility, local
# repair with overhearing and RANDOM-OPT, one `pqsim -seeds 2` run per line
# of SPOT_RUNS, each under a header naming its command (about 9 s on two
# cores). spot-check diffs a fresh run against the file; a change that means
# to move a spot re-records it with `make spot` and says which and why.
SPOT_RUNS = '-stack sinr -n 100' '-stack sinr -n 100 -speed 2' '-stack sinr -n 200' \
	'-stack disk -n 100' '-stack sinr -n 100 -oracle' \
	'-stack sinr -n 100 -speed 5 -repair -overhear' \
	'-stack disk -n 100 -adv random-opt -lookup random-opt'

spot-runs:
	@$(GO) build -o pqsim.spot ./cmd/pqsim
	@for a in $(SPOT_RUNS); do \
		echo "== pqsim -seeds 2 $$a =="; ./pqsim.spot -seeds 2 $$a || { rm -f pqsim.spot; exit 1; }; \
	done; rm -f pqsim.spot

spot:
	@$(MAKE) -s spot-runs > spot.out && mv spot.out results_sinr_spot.txt || { rm -f spot.out; exit 1; }

spot-check:
	@$(MAKE) -s spot-runs | diff results_sinr_spot.txt - || \
		{ echo "spot-check: pqsim differs from results_sinr_spot.txt (<: recorded, >: this tree)"; exit 1; }
