//pqlint:allow nowallclock(mega records real wall-clock, allocation, and heap metrics as its output; no simulation state depends on them)

package experiment

import (
	"fmt"
	"runtime"
	"time"

	"probquorum/internal/check"
	"probquorum/internal/churn"
	"probquorum/internal/faults"
	"probquorum/internal/membership"
	"probquorum/internal/netstack"
	"probquorum/internal/quorum"
	"probquorum/internal/sim"
	"probquorum/internal/stack"
)

// The mega scenario is the scale exercise behind DESIGN.md §12: a ≥10k-node
// SINR/DCF network with continuous churn and a randomized fault schedule
// live, the internal/check invariant suite armed, the cell-aggregated
// interference model on, and the engine's sharded phase selectable — while
// recording the process-level costs (wall clock, allocations, peak heap)
// that the benchmarks track. Routing is the oracle router: AODV route
// discovery floods the whole network per destination, which at 10k nodes
// measures flooding rather than the quorum system, so the oracle isolates
// the PHY/scale cost (Section 4.1's cost-of-using-the-routes framing).

// The workload of a full-horizon run: 30 advertisements one second apart, then
// 60 lookups half a second apart from 12 origins, after a 30 s warm-up, with
// two fault episodes at quarter severity over the lookup phase.
const (
	megaAdvertisements = 30
	megaLookups        = 60
	megaLookupNodes    = 12
	megaWarmupSecs     = 30.0
	megaSeverity       = 0.25
)

// MegaResult is one mega run's protocol outcomes plus its process-level
// cost metrics.
type MegaResult struct {
	N, Shards  int
	Giga       bool
	ChurnFails int
	ChurnJoins int
	// Report is the invariant suite's verdict; its Lookups, Hits and
	// Intersections are the run's lookup tallies.
	Report check.Report
	// Events is how many engine events the run executed.
	Events uint64
	// WallSecs is the real elapsed time of the whole run (build through
	// final drain).
	WallSecs float64
	// Mallocs and AllocBytes are the runtime allocation deltas over the
	// run; PeakHeapBytes is the maximum live heap sampled every few
	// simulated seconds.
	Mallocs       uint64
	AllocBytes    uint64
	PeakHeapBytes uint64
}

// HitRatio is the measured lookup hit fraction.
func (r MegaResult) HitRatio() float64 {
	return ratio(r.Report.Hits, r.Report.Lookups)
}

// IntersectRatio is the measured intersection fraction.
func (r MegaResult) IntersectRatio() float64 {
	return ratio(r.Report.Intersections, r.Report.Lookups)
}

// BenchLine renders the run in go-bench format so cmd/benchjson can fold it
// into BENCH.json: one iteration whose ns/op, B/op, and allocs/op cover the
// whole scenario, plus peak-heap and event-count custom metrics.
func (r MegaResult) BenchLine() string {
	name := "Mega"
	if r.Giga {
		name = "Giga"
	}
	return benchLine(fmt.Sprintf("%sScenario/n=%d/shards=%d", name, r.N, r.Shards), r.WallSecs,
		fmt.Sprintf("%d B/op %d allocs/op %d peak-heap-B %d events", r.AllocBytes, r.Mallocs, r.PeakHeapBytes, r.Events))
}

// Table renders the run for pqexp output.
func (r MegaResult) Table() Table {
	tier := "mega"
	if r.Giga {
		tier = "giga"
	}
	return Table{
		Title:  fmt.Sprintf("%s — %d-node SINR/DCF scale run (shards=%d)", tier, r.N, r.Shards),
		Header: []string{"metric", "value"},
		Rows: [][]string{
			{"lookups", istr(r.Report.Lookups)},
			{"hit ratio", f2(r.HitRatio())},
			{"intersect ratio", f2(r.IntersectRatio())},
			{"churn fails/joins", fmt.Sprintf("%d/%d", r.ChurnFails, r.ChurnJoins)},
			{"invariant violations", istr(r.Report.Violations)},
			{"events", fmt.Sprintf("%d", r.Events)},
			{"wall clock", fmt.Sprintf("%.2fs", r.WallSecs)},
			{"allocs", fmt.Sprintf("%d (%d MB)", r.Mallocs, r.AllocBytes>>20)},
			{"peak heap", fmt.Sprintf("%d MB", r.PeakHeapBytes>>20)},
		},
	}
}

// Mega is the 10k-node scale tier: the run's table and its bench line.
func Mega(tc TierConfig) ([]Table, []string, error) { return scaleTier("mega", tc, false) }

// Giga is the 100k-node scale tier (see RunMega for what it changes).
func Giga(tc TierConfig) ([]Table, []string, error) { return scaleTier("giga", tc, true) }

func scaleTier(name string, tc TierConfig, giga bool) ([]Table, []string, error) {
	res := RunMega(tc, giga)
	return []Table{res.Table()}, []string{res.BenchLine()}, verdict(name, res.Report)
}

// RunMega executes one mega scenario at tc.N nodes (default 10000). giga
// selects the 100k-tier preset: N defaults to 100000, neighbor discovery
// switches to the geometric oracle provider (100k beaconing nodes would swamp
// the PHY with traffic that measures nothing), and results report under the
// BenchmarkGigaScenario name. The simulation outcome depends on the seed and
// model knobs, never on Shards (a throughput knob).
func RunMega(tc TierConfig, giga bool) MegaResult {
	n := tc.N
	if n == 0 {
		n = 10000
		if giga {
			n = 100000
		}
	}
	// The horizon-scaled workload: counts at least 2, warm-up at least 5 s.
	h := tc.horizon()
	scale := func(v int) int { return max(int(float64(v)*h), 2) }
	advertisements, lookups, warmupSecs := scale(megaAdvertisements), scale(megaLookups), max(megaWarmupSecs*h, 5)
	// Continuous fail and join rate in nodes/sec over the lookup phase:
	// 0.5/s at 10k.
	churnRate := float64(n) / 20000

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	startMallocs, startAlloc := ms.Mallocs, ms.TotalAlloc
	startWall := time.Now()

	sc := Scenario{
		Spec: stack.Spec{
			N: n, Seed: tc.Seed, Shards: tc.Shards,
			Link: netstack.Config{Stack: netstack.StackSINR, CellNoise: true},
			// The scale posture: draw-on-demand membership views and cached
			// route trees with sharded prefetch.
			OracleRouting: true, RouteCache: true,
			Members: membership.Config{RefreshSecs: 20, Lazy: true},
			Quorum:  mixConfig(n, quorum.Random, quorum.Random),
		},
		// Continuous churn over the lookup phase (sets the join pool).
		ChurnFailRate: churnRate, ChurnJoinRate: churnRate,
		ChurnDurationSecs: float64(lookups) * 0.5,
		Advertisements:    advertisements,
		Lookups:           lookups, LookupNodes: megaLookupNodes,
		WarmupSecs: warmupSecs,
	}
	if giga {
		// Geometric neighbor lists, where the oracle router caches by itself.
		sc.Link.Neighbors = netstack.NeighborsOracle
	}

	st := sc.build()
	engine, net, suite := st.Engine, st.Net, st.Suite
	defer engine.StopWorkers()
	startEvents := engine.Processed()

	inj := st.Faults()
	rng := engine.NewStream()
	scheduleRng := engine.NewStream()

	// Peak-heap sampling every 5 simulated seconds: cheap enough to leave
	// on, frequent enough to catch the lookup-phase high-water mark.
	var peak uint64
	heapTicker := sim.NewTicker(engine, 0, 5, func() {
		runtime.ReadMemStats(&ms)
		if ms.HeapAlloc > peak {
			peak = ms.HeapAlloc
		}
	})
	defer heapTicker.Stop()

	engine.Run(warmupSecs)

	// Advertise phase.
	keys := make([]string, advertisements)
	for i := range keys {
		keys[i] = fmt.Sprintf("mega-key-%d", i)
		i := i
		engine.Schedule(float64(i)*1.0, func() {
			suite.Advertise(net.RandomAliveID(rng), keys[i], "v", nil)
		})
	}
	engine.Run(engine.Now() + float64(advertisements)*1.0 + 20)

	// Lookup phase with churn and faults live.
	lookupSpan := float64(lookups) * 0.5
	proc := st.Churn(churn.Config{FailRate: churnRate, JoinRate: churnRate})
	inj.Schedule(faults.RandomSchedule(scheduleRng, faults.ScheduleConfig{
		HorizonSecs: lookupSpan,
		Episodes:    2,
		Severity:    megaSeverity,
		N:           n,
	}))
	proc.Start()
	engine.Schedule(lookupSpan, proc.Stop)

	res := MegaResult{N: n, Shards: tc.Shards, Giga: giga}
	origins := make([]int, megaLookupNodes)
	for i := range origins {
		origins[i] = net.RandomAliveID(rng)
	}
	for i := 0; i < lookups; i++ {
		origin := origins[i%len(origins)]
		key := keys[rng.Intn(len(keys))]
		engine.Schedule(float64(i)*0.5, func() {
			if net.Alive(origin) {
				suite.Lookup(origin, key, nil)
			}
		})
	}
	engine.Run(engine.Now() + lookupSpan + sc.Quorum.LookupTimeout + 30)

	res.Report = suite.Final()
	cs := proc.Stats()
	res.ChurnFails, res.ChurnJoins = cs.Fails, cs.Joins
	res.Events = engine.Processed() - startEvents

	runtime.ReadMemStats(&ms)
	if ms.HeapAlloc > peak {
		peak = ms.HeapAlloc
	}
	res.WallSecs = time.Since(startWall).Seconds()
	res.Mallocs = ms.Mallocs - startMallocs
	res.AllocBytes = ms.TotalAlloc - startAlloc
	res.PeakHeapBytes = peak
	return res
}
