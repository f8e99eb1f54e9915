package experiment

import (
	"fmt"

	"probquorum/internal/check"
	"probquorum/internal/netstack"
	"probquorum/internal/quorum"
	"probquorum/internal/workload"
)

// The load figure is the open-loop throughput study the paper never ran:
// instead of the closed-loop one-op-at-a-time phases of Section 8, every
// node issues quorum operations from an arrival process (Poisson or bursty
// MMPP) against a bounded in-flight window, whether or not earlier ops have
// finished. Per strategy mix it reports sustained throughput, exact p50/p99
// operation latency from the netstack's log-scale histogram (phase-diffed,
// so warmup and seeding never pollute the percentiles), the shed/queue
// saturation accounting, and two load-skew views — issue-side (max/mean ops
// issued per node) and serve-side (max/mean lookup answers produced per
// node) — alongside the owner/bystander cache-hit split. Invariant checkers
// run armed throughout, including the pending-op drain assertion.
//
// The stack is ideal links + oracle routing: Section 4.1's framing isolates
// the quorum layer's cost of *using* routes, which is what differentiates
// the strategies under load; the SINR stack would measure MAC contention
// instead.

const (
	// loadN nodes issue for loadDurationSecs at full horizon.
	loadN            = 300
	loadDurationSecs = 120.0
	// loadRatePerNode is each node's mean arrival rate in ops/sec (the MMPP
	// mix bursts at 4× with 1:3 on/off sojourns to match this mean), of which
	// loadWriteFraction are advertises.
	loadRatePerNode   = 0.5
	loadWriteFraction = 0.1
	// loadKeys is the key-space size; every key is advertised once before
	// the load phase so reads can hit from the first arrival.
	loadKeys = 64
	// loadMaxInFlight is the per-node window (the workload generator queues
	// twice that).
	loadMaxInFlight = 8
)

// loadSize is the horizon-scaled node count (at least 40) and issue-phase
// length (at least 15 s).
func loadSize(tc TierConfig) (n int, durationSecs float64) {
	h := tc.horizon()
	return max(int(loadN*h), 40), max(loadDurationSecs*h, 15)
}

// loadMix is one strategy/traffic combination of the figure.
type loadMix struct {
	name    string
	adv, lk quorum.Strategy
	arrival workload.Arrival
	keyDist workload.KeyDist
}

// loadMixes is the figure's fixed mix axis: the four lookup strategies that
// behave differently under concurrent load (Poisson/Zipf), plus the same
// baseline mix under uniform keys and under bursty MMPP arrivals.
func loadMixes() []loadMix {
	return []loadMix{
		{"RANDOM × RANDOM", quorum.Random, quorum.Random, workload.Poisson, workload.Zipf},
		{"RANDOM × RANDOM-OPT", quorum.Random, quorum.RandomOpt, workload.Poisson, workload.Zipf},
		{"RANDOM × UNIQUE-PATH", quorum.Random, quorum.UniquePath, workload.Poisson, workload.Zipf},
		{"RANDOM × EXPANDING-RING", quorum.Random, quorum.ExpandingRing, workload.Poisson, workload.Zipf},
		{"RANDOM × RANDOM / uniform", quorum.Random, quorum.Random, workload.Poisson, workload.Uniform},
		{"RANDOM × RANDOM / mmpp", quorum.Random, quorum.Random, workload.MMPP, workload.Zipf},
	}
}

// LoadMixResult is one mix's outcomes, a pure function of (TierConfig, mix).
type LoadMixResult struct {
	Mix     string
	Arrival workload.Arrival
	KeyDist workload.KeyDist
	// WL is the generator's issue/complete/queue/shed accounting.
	WL workload.Stats
	// OpsPerSec is completed operations per simulated second of the issue
	// phase — the sustained throughput.
	OpsPerSec float64
	// P50 and P99 are operation-latency quantiles in seconds, from the
	// load phase's histogram diff.
	P50, P99 float64
	// HitRatio is hits over completed reads.
	HitRatio float64
	// IssueSkew is max/mean ops issued per node; ServeSkew is max/mean
	// lookup answers produced per node (the paper's load-balance concern,
	// measured on the server side).
	IssueSkew, ServeSkew float64
	// OwnerHits / CacheHits split answers by owner vs bystander cache.
	OwnerHits, CacheHits int
	// Report is the armed invariant suite's verdict (incl. op drain).
	Report check.Report
}

// Load is the load tier: the data table, bit-identical at any Parallel.
func Load(tc TierConfig) ([]Table, []string, error) {
	results := RunLoad(tc)
	var reports []check.Report
	for _, r := range results {
		reports = append(reports, r.Report)
	}
	return []Table{LoadTable(tc, results)}, nil, verdict("load", reports...)
}

// RunLoad executes every mix of the load figure on a pool of tc.Parallel
// workers. Results are in mix order and bit-identical at any Parallel
// setting: each mix owns an isolated stack and the merge is by
// index.
func RunLoad(tc TierConfig) []LoadMixResult {
	mixes := loadMixes()
	out := make([]LoadMixResult, len(mixes))
	forEachJob(len(mixes), tc.Parallel, func(i int) {
		out[i] = runLoadMix(tc, mixes[i])
	})
	return out
}

// runLoadMix runs one strategy/traffic mix: warmup, a seeding phase that
// advertises the whole key table, then the open-loop load phase with the
// stats snapshot diffed around it.
func runLoadMix(tc TierConfig, m loadMix) LoadMixResult {
	n, durationSecs := loadSize(tc)
	sc := idealOracleScenario(n, tc.Seed)
	sc.Quorum = mixConfig(n, m.adv, m.lk)
	sc.fillDefaults()
	st := sc.build()
	engine, net, sys, suite := st.Engine, st.Net, st.Sys, st.Suite
	rng := engine.NewStream()

	engine.Run(sc.WarmupSecs)

	// Seeding: advertise every key the generator can draw (its table is
	// "key-%d") so reads contend with real data from the first arrival.
	for i := 0; i < loadKeys; i++ {
		key := fmt.Sprintf("key-%d", i)
		origin := net.RandomAliveID(rng)
		engine.Schedule(float64(i)*0.25, func() {
			suite.Advertise(origin, key, "v", nil)
		})
	}
	engine.Run(engine.Now() + float64(loadKeys)*0.25 + 30)

	// Load phase. The issue wrapper times each op into the netstack's
	// op-latency histogram; the snapshot diff below isolates this phase's
	// samples, so seeding advertises never pollute the percentiles.
	stats := net.Stats()
	loadStart := stats.Snapshot()
	issue := func(op workload.Op, done func(hit bool)) {
		start := engine.Now()
		if op.Write {
			suite.Advertise(op.Node, op.Key, "v", func(quorum.AdvertiseResult) {
				stats.Observe(netstack.LatOp, engine.Now()-start)
				done(false)
			})
			return
		}
		suite.Lookup(op.Node, op.Key, func(r quorum.LookupResult) {
			stats.Observe(netstack.LatOp, engine.Now()-start)
			done(r.Hit)
		})
	}
	nodes := make([]int, n)
	for i := range nodes {
		nodes[i] = i
	}
	wcfg := workload.Config{
		Arrival: m.arrival, RatePerNode: loadRatePerNode,
		Keys: loadKeys, KeyDist: m.keyDist,
		WriteFraction: loadWriteFraction, MaxInFlight: loadMaxInFlight,
		DurationSecs: durationSecs,
	}
	if m.arrival == workload.MMPP {
		// Burst at 4× with the generator's 1:3 on/off sojourns: same mean
		// rate as the Poisson mixes, strongly modulated.
		wcfg.RatePerNode = 4 * loadRatePerNode
	}
	gen := workload.New(engine, wcfg, nodes, issue)
	gen.Start()

	// Drain: a queued arrival can wait behind up to two windows of ops
	// (queue limit 2× window), each bounded by the worst op horizon — the
	// advertise deadline or the lookup timeout — so three serial waves
	// cover everything the generator admitted.
	qc := sys.Config()
	horizon := max(qc.AdvertiseTimeoutSecs, qc.LookupHorizon())
	engine.Run(engine.Now() + durationSecs + 3*horizon + 10)
	diff := stats.DiffSince(loadStart)

	ws := gen.Stats()
	res := LoadMixResult{
		Mix: m.name, Arrival: m.arrival, KeyDist: m.keyDist, WL: ws,
		OpsPerSec: float64(ws.Completed) / durationSecs,
		P50:       diff.LatencyQuantile(netstack.LatOp, 0.5),
		P99:       diff.LatencyQuantile(netstack.LatOp, 0.99),
		IssueSkew: gen.LoadSkew(),
		ServeSkew: serveSkew(sys.ServedCounts()),
	}
	if ws.Reads > 0 {
		res.HitRatio = float64(ws.Hits) / float64(ws.Reads)
	}
	ctr := sys.Counters()
	res.OwnerHits, res.CacheHits = ctr.OwnerHits, ctr.CacheHits
	res.Report = suite.Final()
	return res
}

// serveSkew is max/mean over per-node serve counts (0 when nothing was
// served).
func serveSkew(counts []int64) float64 {
	var max, sum int64
	for _, c := range counts {
		if c > max {
			max = c
		}
		sum += c
	}
	if sum == 0 {
		return 0
	}
	return float64(max) / (float64(sum) / float64(len(counts)))
}

// LoadTable renders the figure's data table. It contains no wall-clock
// field, so the rendered text is bit-identical at any Parallel
// setting — the property TestLoadFigureParallelDeterminism locks in.
func LoadTable(tc TierConfig, results []LoadMixResult) Table {
	n, durationSecs := loadSize(tc)
	var rows [][]string
	for _, r := range results {
		rows = append(rows, []string{
			r.Mix, r.Arrival.String(), r.KeyDist.String(),
			f1(r.OpsPerSec),
			f2(r.P50 * 1e3), f2(r.P99 * 1e3),
			f2(r.HitRatio),
			fmt.Sprintf("%d/%d", r.WL.Queued, r.WL.Shed),
			f2(r.IssueSkew), f2(r.ServeSkew),
			fmt.Sprintf("%d/%d", r.OwnerHits, r.CacheHits),
			istr(r.Report.Violations),
		})
	}
	return Table{
		Title: fmt.Sprintf("load — open-loop throughput by strategy mix, n=%d, %.2g ops/s/node × %.0fs, window %d",
			n, loadRatePerNode, durationSecs, loadMaxInFlight),
		Header: []string{"mix", "arrival", "keys", "ops/sec", "p50 ms", "p99 ms", "hit", "queued/shed", "issue-skew", "serve-skew", "owner/cache", "violations"},
		Rows:   rows,
	}
}
