package experiment

import (
	"runtime"
	"sync"
)

// Point is one sweep coordinate: a fully-specified scenario averaged over
// Seeds consecutive seeds (Scenario.Seed is the base, as in RunSeeds).
// Seeds < 1 is treated as 1.
type Point struct {
	Scenario Scenario
	Seeds    int
}

// Sweep is an ordered set of independent points. Every (point, seed) pair
// is an isolated simulation run — the ensemble structure behind all of the
// paper's figures — so the pairs can execute in any order, on any number
// of workers, without changing the merged output.
type Sweep struct {
	Points []Point
}

// NewSweep builds a sweep that averages each scenario over seeds runs.
func NewSweep(scs []Scenario, seeds int) Sweep {
	pts := make([]Point, len(scs))
	for i, sc := range scs {
		pts[i] = Point{Scenario: sc, Seeds: seeds}
	}
	return Sweep{Points: pts}
}

// RunSweep executes every (point, seed) run of the sweep on a pool of
// `parallel` workers (parallel < 1 means runtime.GOMAXPROCS(0)) and
// returns one averaged Result per point, in point order.
//
// Each run owns its entire stack — engine, network, RNG streams, metrics —
// so runs share nothing and the merge is performed in deterministic
// point/seed order after the pool drains. The output is therefore
// bit-for-bit identical for any parallelism, including 1 (see
// TestRunSweepDeterminism).
func RunSweep(sw Sweep, parallel int) []Result {
	type job struct{ point, seed int }
	var jobs []job
	perSeed := make([][]Result, len(sw.Points))
	for i, pt := range sw.Points {
		seeds := pt.Seeds
		if seeds < 1 {
			seeds = 1
		}
		perSeed[i] = make([]Result, seeds)
		for s := 0; s < seeds; s++ {
			jobs = append(jobs, job{point: i, seed: s})
		}
	}
	forEachJob(len(jobs), parallel, func(j int) {
		pt := sw.Points[jobs[j].point]
		sc := pt.Scenario
		sc.Seed += int64(jobs[j].seed)
		perSeed[jobs[j].point][jobs[j].seed] = Run(sc)
	})
	out := make([]Result, len(sw.Points))
	for i := range sw.Points {
		out[i] = mergeRuns(perSeed[i])
	}
	return out
}

// forEachJob runs fn(0), …, fn(n-1) on a pool of `parallel` worker
// goroutines (parallel < 1 means runtime.GOMAXPROCS(0)). Jobs are handed
// out in index order, and forEachJob returns when every job has completed.
func forEachJob(n, parallel int, fn func(int)) {
	if parallel < 1 {
		parallel = runtime.GOMAXPROCS(0)
	}
	if parallel > n {
		parallel = n
	}
	jobCh := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < parallel; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobCh {
				fn(j)
			}
		}()
	}
	for j := 0; j < n; j++ {
		jobCh <- j
	}
	close(jobCh)
	wg.Wait()
}

// addMeans adds each of src's averaged fields to dst's; divMeans divides them
// by the number of runs merged. Together with the means() lists they are how
// every merge in the package averages: sum in slice order, divide once.
func addMeans(dst, src []*float64) {
	for i, p := range dst {
		*p += *src[i]
	}
}

func divMeans(dst []*float64, runs int) {
	for _, p := range dst {
		*p /= float64(runs)
	}
}

// mergeRuns averages per-seed results into one Result, accumulating in
// slice order so the merge is independent of run completion order. Counters,
// bucket tallies, leaks and violations stay sums (a nonzero leak must survive
// averaging; bucket ratios come from the tallies); the fields of the result's
// and the buckets' means() average.
func mergeRuns(runs []Result) Result {
	var agg Result
	for _, one := range runs {
		addMeans(agg.means(), one.means())
		agg.Counters.Add(one.Counters)
		for bi, d := range one.Decay {
			if bi >= len(agg.Decay) {
				agg.Decay = append(agg.Decay, DecayPoint{T: d.T})
			}
			agg.Decay[bi].add(d.Tally)
			addMeans(agg.Decay[bi].means(), d.means())
		}
		agg.LeakedOps += one.LeakedOps
		agg.Violations += one.Violations
		agg.Runs += one.Runs
	}
	divMeans(agg.means(), len(runs))
	for bi := range agg.Decay {
		divMeans(agg.Decay[bi].means(), len(runs))
	}
	return agg
}

// sweepResults runs one scenario per element, each averaged over p.Seeds
// seeds, with the profile's parallelism, and returns results in input order
// — for tables that read several results side by side (see points for the
// row-per-point figures).
func sweepResults(p Profile, scs []Scenario) []Result {
	return RunSweep(NewSweep(scs, p.Seeds), p.Parallel)
}
