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

// RunSweep executes every (point, seed) run of pts on a pool of `parallel`
// workers (parallel < 1 means runtime.GOMAXPROCS(0)) and returns one averaged
// Result per point, in point order.
//
// Every (point, seed) pair is an isolated simulation run — the ensemble
// structure behind all of the paper's figures. Each run owns its entire
// stack — engine, network, RNG streams, metrics — so runs share nothing and
// the merge is performed in deterministic point/seed order after the pool
// drains. The output is therefore bit-for-bit identical for any parallelism,
// including 1 (see TestRunSweepDeterminism).
func RunSweep(pts []Point, parallel int) []Result {
	var jobs []Scenario
	for _, pt := range pts {
		for s := 0; s < max(pt.Seeds, 1); s++ {
			sc := pt.Scenario
			sc.Seed += int64(s)
			jobs = append(jobs, sc)
		}
	}
	runs := runJobs(len(jobs), parallel, func(j int) Result { return Run(jobs[j]) })
	out := make([]Result, len(pts))
	for i, pt := range pts {
		seeds := max(pt.Seeds, 1)
		out[i] = mergeRuns(runs[:seeds])
		runs = runs[seeds:]
	}
	return out
}

// runJobs runs run(0), …, run(n-1) on a pool of `parallel` worker goroutines
// (parallel < 1 means runtime.GOMAXPROCS(0)) and returns the results by
// index. Jobs are handed out in index order; runJobs returns when every job
// has completed. It is the package's one way to fan out independent runs:
// each caller merges the results in index order, so its output does not
// depend on the pool size.
func runJobs[T any](n, parallel int, run func(int) T) []T {
	if parallel < 1 {
		parallel = runtime.GOMAXPROCS(0)
	}
	if parallel > n {
		parallel = n
	}
	out := make([]T, n)
	jobCh := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < parallel; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobCh {
				out[j] = run(j)
			}
		}()
	}
	for j := 0; j < n; j++ {
		jobCh <- j
	}
	close(jobCh)
	wg.Wait()
	return out
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
