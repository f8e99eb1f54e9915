# Development targets. The repo is stdlib-only Go; everything here wraps
# the standard toolchain.
#
# check is the CI gate and runs in this order:
#   1. build  — the whole tree compiles;
#   2. lint   — pqlint's determinism invariants (fast, fails early);
#      inline-check — the compiler still inlines the radio's per-arrival
#               helpers, a random stream's per-entry seeding, the
#               engine's event order and the queue and mark-set methods
#               the hot paths call (a few seconds);
#   3. chaos  — the fault-injection acceptance sweep;
#   4. quick-check — `pqexp all` reproduces the data lines of the recorded
#               results_quick.txt byte for byte, the spot figure's
#               SINR/DCF/AODV runs included;
#   5. load-smoke, adapt-smoke — two of the three tiers (an invariant
#               violation is fatal in all of them), their tables diffed
#               against the recorded results_tiers.txt;
#   6. bench-digest — the benchmark's four sim.digests against the recorded
#               BENCH_DIGESTS.txt, so a host-side-only change is held to
#               its simulated behaviour without a manual step;
#   7. vet    — the standard toolchain's analyzers;
#   8. race   — the short test set under the race detector, which enforces
#               the per-engine isolation invariant (sim.TestEnginesIsolated
#               and the parallel-vs-serial sweep determinism tests in
#               internal/experiment run concurrent full stacks).
#
# No step of check writes a tracked file: on a clean checkout it leaves
# `git status` empty. BENCH.json has one writer, `make bench`.

GO ?= go

.PHONY: build test check lint inline-check loc reach ab bench bench-digest bench-digests quick quick-check tiers chaos mega-smoke load-smoke adapt-smoke giga-smoke

build:
	$(GO) build ./...

test:
	$(GO) test ./...

check: build lint inline-check chaos quick-check load-smoke adapt-smoke bench-digest
	$(GO) vet ./...
	$(GO) test -race -short ./...

# lint runs pqlint, the determinism- and invariant-enforcing static
# analysis suite (internal/lint): no global math/rand, no wall clock or pid
# in simulation code, no order-sensitive map iteration — plus the
# whole-program, call-graph-aware noalloc (annotated hot paths must not
# allocate along the call chain, up to the calls that declare a hand-off). Suppressions are reasoned
# //pqlint:allow directives, and one that suppresses nothing is a finding;
# see DESIGN.md §8. Any finding fails the target.
lint:
	$(GO) run ./cmd/pqlint ./...

# inline-check fails when a function a hot path relies on inlining no longer
# does: it builds INLINE_PKGS with -gcflags=-m and requires a "can inline"
# line for each of INLINE_MUST (the name after "can inline", matched exactly).
# The first four serve the SINR medium's per-arrival walks; sim's entry is
# what a random stream's first 607 draws cost, and (*source).step what each
# later draw costs (sim/rand.go); precedes is the event order that the heap's
# sifts and the run loop's merge of lanes compare with. The Pool's Put is the
# push every recycled record takes (events at each fire or cancel); its name
# is the body that pointer instantiations share. Get is not listed: its call
# to New alone costs 57 of the inliner's budget of 80, so no Get with a cold
# path inlines, and the "can inline (*Pool[*…Event]).Get" that -m prints is a
# wrapper that only forwards to that body. The Queue's Len, Front and Pop are
# the run loop's scan and pop of lane heads (the lane entry's shape, LANE_SHAPE)
# and the index refresh's drain (the int32 shape, compiled in phy).
# (*Marks).Has is the membership test of the walk's candidate scan and the
# oracle's BFS. An inlining lost
# to a small edit costs speed and changes no output, so no other gate
# notices: a mute test inside carrierAt took it past the inliner's budget once.
INLINE_PKGS = ./internal/phy ./internal/geom ./internal/sim
LANE_SHAPE = go.shape.struct { probquorum/internal/sim.time float64; probquorum/internal/sim.seq uint64; probquorum/internal/sim.fn func() }
INLINE_MUST = '(*radio).carrierAt' '(*radio).busyAt' '(*Derived).ReceivedPowerMw' 'Dist2' 'entry' '(*source).step' 'precedes' '(*Pool[go.shape.*uint8]).Put' \
	'(*Queue[$(LANE_SHAPE)]).Len' '(*Queue[$(LANE_SHAPE)]).Front' '(*Queue[$(LANE_SHAPE)]).Pop' \
	'sim.(*Queue[go.shape.int32]).Len' 'sim.(*Queue[go.shape.int32]).Front' 'sim.(*Queue[go.shape.int32]).Pop' '(*Marks).Has'

inline-check:
	@out=$$($(GO) build -gcflags=-m $(INLINE_PKGS) 2>&1) || { echo "$$out"; exit 1; }; \
	for f in $(INLINE_MUST); do \
		echo "$$out" | awk -v f="$$f" '{ i = index($$0, ": can inline ") } i && substr($$0, i + 13) == f { found = 1 } END { exit !found }' || \
			{ echo "inline-check: $$f is no longer inlinable (go build -gcflags=-m $(INLINE_PKGS))"; exit 1; }; \
	done

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

# reach lists the functions that no figure, tier, example or benchmark
# workload executes: the coverage run a simplicity PR starts from. It builds
# pqexp, pqsim, bench and the five examples with coverage over the whole
# module into a temporary directory, runs the examples, all four bench/
# workloads (untraced and traced), `pqexp -short mega|load|adapt`, pqsim once
# with its default flags (the spot figure runs the same scenarios in-process)
# and `pqexp all`, and prints the functions left at 0.0 %, leaving out the
# tooling that none of those runs is meant to reach (internal/lint,
# cmd/pqlint, cmd/ab, cmd/benchjson) and bench/. It writes no tracked file
# and is no part of check: it takes about four and a half minutes on two cores.
REACH_EXAMPLES = churnresilience locationservice pubsub quickstart sharedregister
REACH_SKIP = ^probquorum/(internal/lint|cmd/(pqlint|ab|benchjson)|bench)/

reach:
	@d=$$(mktemp -d) && trap 'rm -rf "$$d"' EXIT && mkdir "$$d/cov" && \
	for p in cmd/pqexp cmd/pqsim bench $(addprefix examples/,$(REACH_EXAMPLES)); do \
		$(GO) build -cover -coverpkg=./... -o "$$d/$$(basename $$p)" ./$$p || exit 1; \
	done && \
	export GOCOVERDIR="$$d/cov" && \
	for e in $(REACH_EXAMPLES); do "$$d/$$e" > /dev/null || exit 1; done && \
	for w in $(BENCH_WORKLOADS); do "$$d/bench" -workload $$w > /dev/null || exit 1; done && \
	for t in mega load adapt; do "$$d/pqexp" -short $$t > /dev/null || exit 1; done && \
	"$$d/pqsim" > /dev/null && \
	"$$d/pqexp" all > /dev/null && \
	$(GO) tool covdata func -i "$$d/cov" | awk '$$NF == "0.0%"' | { grep -Ev '$(REACH_SKIP)' || true; }

# chaos runs the fault-injection acceptance sweep: ≥50 randomized fault
# schedules with the invariant checkers armed (skipped under -short, so it
# gets its own target; see internal/experiment/chaos_test.go).
chaos:
	$(GO) test -run 'TestChaos' -count=1 ./internal/experiment

# ab is the A/B comparison a performance change quotes: it builds the
# benchmark (bench/) at BASE and at the work tree — WORK=<rev> builds a second
# revision instead — runs the two alternately for PAIRS pairs on seeds SEED…,
# and prints per end-to-end metric the median ratio work/base, its quartiles,
# the pairs won, and whether the simulated metrics were bit-equal per seed.
# Revisions are exported with git archive into a temporary directory; nothing
# in the tree is written. About 35 s per pair for paper-sinr-aodv.
BASE ?= HEAD
W ?= paper-sinr-aodv
PAIRS ?= 10
SEED ?= 11
WORK ?=

ab:
	$(GO) run ./cmd/ab -base $(BASE) -work '$(WORK)' -workload $(W) -pairs $(PAIRS) -seed $(SEED)

# bench is the one writer of BENCH.json. It runs the root package's
# benchmarks (the substrate micro-benchmarks and the sweep executor) with
# allocation reporting, then the full-horizon 10k mega run, and pipes all of
# it through benchjson, which replaces the file: every entry comes from one run
# on one host, and each name ends in -<GOMAXPROCS> (nothing at 1). A failure
# anywhere reaches benchjson as a FAIL line and nothing is written. Takes a
# few minutes: the default benchtime is what lets the pooled hot paths reach
# their steady-state (zero-alloc) numbers — CI runs the same benchmarks at
# -benchtime=1x as a does-it-run gate that writes nothing.
bench:
	{ $(GO) test -bench=. -benchmem -run='^$$' . && $(GO) run ./cmd/pqexp mega || echo FAIL; } | \
		$(GO) run ./cmd/benchjson -out BENCH.json

# bench-digest gates "host-side only" claims mechanically. The repository's
# benchmark (bench/, BENCHMARK.json) folds every simulated quantity of a
# workload's timed phase — event count, message and drop counters, hop
# latencies, every operation's outcome and latency — into one number,
# sim.digest, which is a pure function of (workload, seed, seconds). A change
# that only makes the host faster must leave all four digests equal to the
# committed BENCH_DIGESTS.txt (seed 1, -seconds 10: the benchmark's own
# defaults); a change that deliberately alters simulated behaviour re-records
# the file in the same commit with `make bench-digests` and says why. Takes
# about half a minute (one traced run per workload: 33 s for the four on two
# vCPUs). It is a step of check.
BENCH_WORKLOADS = paper-sinr-aodv ideal-walk-read ideal-routed-mixed scale-sinr-churn

# BENCH_DIGEST_LINES prints a "<workload> <sim.digest>" line per workload and
# exits nonzero on a failed run or a run that printed no digest.
BENCH_DIGEST_LINES = for w in $(BENCH_WORKLOADS); do \
		j=$$($(GO) run ./bench -workload $$w -trace 1 -json) || exit 1; \
		v=$$(echo "$$j" | sed -n 's/.*"sim.digest":{"value":\([0-9]*\).*/\1/p'); \
		[ -n "$$v" ] || { echo "bench-digests: $$w printed no sim.digest" >&2; exit 1; }; \
		echo "$$w $$v"; \
	done

bench-digests:
	@( $(BENCH_DIGEST_LINES) ) > bench-digests.out && mv bench-digests.out BENCH_DIGESTS.txt || \
		{ rm -f bench-digests.out; exit 1; }

bench-digest:
	@out=$$( $(BENCH_DIGEST_LINES) ) || exit 1; echo "$$out" | diff BENCH_DIGESTS.txt - || \
		{ echo "bench-digest: sim.digest differs from BENCH_DIGESTS.txt (<: committed, >: this tree): the change is not host-side only"; exit 1; }

# mega-smoke runs the 10k-node scale scenario (DESIGN.md §12) on a
# shortened horizon: SINR/DCF with cell-noise interference, churn and a
# fault schedule live, invariant checkers armed and fatal (a violation or a
# leaked op makes pqexp exit nonzero). No -race — the point is that 10k nodes
# complete in CI time. It is a does-it-run-and-stay-put gate: its 9 lookups
# carry no science claim, but its simulated rows (lookups, hit and intersect
# ratio, churn, violations, events) must match the 10000-node section of
# results_tiers.txt byte for byte. The host rows are left out (wall clock,
# allocs, peak heap, the Benchmark line: MEGA_ROWS), and bench-digest covers
# neither this tier nor giga-smoke.
mega-smoke:
	$(call mega-smoke,10000)

# giga-smoke runs the mega tier (DESIGN.md §15: oracle neighbors, lazy
# membership, route cache) at a CI-sized 25k nodes on the shortened horizon,
# churn/faults/invariants armed and fatal, and holds its simulated rows to
# the 25000-node section of results_tiers.txt as mega-smoke does. The full
# 100k run is `pqexp -n 100000 mega`; this is the does-it-scale gate.
giga-smoke:
	$(call mega-smoke,25000)

# MEGA_ROWS filters what `pqexp mega` prints down to its simulated rows: it
# drops the host rows (wall clock, allocs, peak heap), the Benchmark line and
# the closing wall-clock line, strips the value column's trailing padding
# (sized by the allocs row) and keeps one blank line between sections.
MEGA_ROWS = awk '/^(wall clock|allocs|peak heap) |^Benchmark| wall clock, / { next } \
	{ sub(/ +$$/, "") } $$0 != "" || last != "" { print } { last = $$0 }'

# tiers records what the tier smoke runs print apart from host figures: the
# `pqexp -short load` and `-short adapt` tables without their `# … wall clock`
# lines (free of wall-clock fields by construction), then MEGA_ROWS of
# `pqexp -short mega` at 10000 and at 25000 nodes, two "## mega" sections told
# apart by their node count. results_quick.txt covers `pqexp all` only; this
# file is the same gate for the four tiers CI smoke-runs. A refactor must pass
# it untouched; a change that means to move a tier table re-records the file
# with `make tiers` in the same commit and says which rows and why. Each run
# goes to tiers.run before it is filtered, so a failed run fails the target,
# and the file is replaced only when all four succeeded.
tiers:
	@( for t in load adapt; do $(GO) run ./cmd/pqexp -short $$t > tiers.run || exit 1; grep -v '^# .* wall clock' tiers.run; done; \
		for n in 10000 25000; do $(GO) run ./cmd/pqexp -short -n $$n mega > tiers.run || exit 1; $(MEGA_ROWS) tiers.run; done ) > tiers.out && \
		mv tiers.out results_tiers.txt; s=$$?; rm -f tiers.run tiers.out; exit $$s

# mega-smoke runs `pqexp -short -n $(1) mega` into mega$(1).out — a
# violation, a leaked op or a crash exits nonzero, which fails the target with
# the output shown — and diffs its MEGA_ROWS against the section of
# results_tiers.txt whose "## mega" title names $(1) nodes.
define mega-smoke
	$(GO) run ./cmd/pqexp -short -n $(1) mega > mega$(1).out || { cat mega$(1).out; rm -f mega$(1).out; exit 1; }
	@$(MEGA_ROWS) mega$(1).out > mega$(1).rows; \
	awk '/^## /{on = ($$2 == "mega" && $$4 == "$(1)-node")} on' results_tiers.txt | diff - mega$(1).rows || \
		{ echo "$@: pqexp -short -n $(1) mega differs from results_tiers.txt (<: recorded, >: this tree)"; rm -f mega$(1).out mega$(1).rows; exit 1; }
	@rm -f mega$(1).out mega$(1).rows
endef

# tier-smoke runs tier $(1) on its smoke horizon into $(1).out — a violation,
# a leaked op or a crash exits nonzero, which fails the target with the output
# shown — and diffs everything but its wall-clock line against the tier's own
# tables in results_tiers.txt: from its first "## $(1)" title up to the next
# tier's.
define tier-smoke
	$(GO) run ./cmd/pqexp -short $(1) > $(1).out || { cat $(1).out; rm -f $(1).out; exit 1; }
	@awk '/^## /{on = ($$2 == "$(1)")} on' results_tiers.txt | diff -I '^# .* wall clock' - $(1).out || \
		{ echo "$(1)-smoke: pqexp -short $(1) differs from results_tiers.txt (<: recorded, >: this tree)"; rm -f $(1).out; exit 1; }
	@rm -f $(1).out
endef

# load-smoke runs the open-loop workload figure (DESIGN.md §13) on a
# shortened horizon: Poisson and MMPP arrivals against every strategy mix
# with the invariant checkers armed (any violation — including a pending-op
# leak — makes the run nonzero and fails check).
load-smoke:
	$(call tier-smoke,load)

# adapt-smoke runs the adaptive-sizing chaos figure (DESIGN.md §14) on a
# shortened horizon: static vs closed-loop quorum sizing under mass-join,
# mass-failure, and ramp drifts, with the invariant checkers (incl. the
# controller's resize-bounds watch and the pending-op drain) armed and
# fatal.
adapt-smoke:
	$(call tier-smoke,adapt)

# quick regenerates the recorded quick-profile results (with per-figure
# wall clock and effective parallelism), replacing the file only when the run
# succeeded.
quick:
	@$(GO) run ./cmd/pqexp all > quick.out && mv quick.out results_quick.txt || { rm -f quick.out; exit 1; }

# quick-check gates "the recorded numbers stay put": it regenerates the
# quick-profile figures (under a minute on two cores) and diffs
# them against the committed results_quick.txt, ignoring only the per-figure
# `# … wall clock` lines. A refactor must pass it untouched; a change that
# means to move a figure re-records the file with `make quick` in the same
# commit and says which tables moved and why.
quick-check:
	@$(GO) run ./cmd/pqexp all | diff -I '^# .* wall clock' results_quick.txt - || \
		{ echo "quick-check: pqexp all differs from results_quick.txt (<: recorded, >: this tree)"; exit 1; }
