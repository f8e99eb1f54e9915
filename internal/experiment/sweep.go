package experiment

import (
	"context"
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
//
// Cancelling ctx stops the sweep between runs: in-flight runs finish, no
// further runs start, and RunSweep returns ctx.Err() with nil results.
func RunSweep(ctx context.Context, sw Sweep, parallel int) ([]Result, error) {
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
	err := forEachJob(ctx, len(jobs), parallel, func(j int) {
		pt := sw.Points[jobs[j].point]
		sc := pt.Scenario
		sc.Seed += int64(jobs[j].seed)
		perSeed[jobs[j].point][jobs[j].seed] = Run(sc)
	})
	if err != nil {
		return nil, err
	}
	out := make([]Result, len(sw.Points))
	for i := range sw.Points {
		out[i] = mergeRuns(perSeed[i])
	}
	return out, nil
}

// forEachJob runs fn(0), …, fn(n-1) on a pool of `parallel` worker
// goroutines (parallel < 1 means runtime.GOMAXPROCS(0)). Jobs are handed
// out in index order. When ctx is cancelled, no further jobs are handed
// out, already-running jobs complete, and the context's error is returned
// after the pool drains.
func forEachJob(ctx context.Context, n, parallel int, fn func(int)) error {
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
	done := ctx.Done()
feed:
	for j := 0; j < n; j++ {
		select {
		case <-done:
			break feed
		case jobCh <- j:
		}
	}
	close(jobCh)
	wg.Wait()
	return ctx.Err()
}

// mergeRuns averages per-seed results into one Result, accumulating in
// slice order so the merge is independent of run completion order.
func mergeRuns(runs []Result) Result {
	var agg Result
	for _, one := range runs {
		agg.HitRatio += one.HitRatio
		agg.IntersectRatio += one.IntersectRatio
		agg.ReplyDropRatio += one.ReplyDropRatio
		agg.AdvertiseAppMsgs += one.AdvertiseAppMsgs
		agg.AdvertiseRoutingMsgs += one.AdvertiseRoutingMsgs
		agg.LookupAppMsgs += one.LookupAppMsgs
		agg.LookupRoutingMsgs += one.LookupRoutingMsgs
		agg.AvgPlaced += one.AvgPlaced
		agg.AvgLatency += one.AvgLatency
		agg.AvgHopLatency += one.AvgHopLatency
		agg.LossDrops += one.LossDrops
		agg.ChurnFails += one.ChurnFails
		agg.ChurnJoins += one.ChurnJoins
		for bi, d := range one.Decay {
			if bi >= len(agg.Decay) {
				agg.Decay = append(agg.Decay, DecayPoint{T: d.T})
			}
			agg.Decay[bi].Lookups += d.Lookups
			agg.Decay[bi].Hits += d.Hits
			agg.Decay[bi].Intersects += d.Intersects
			agg.Decay[bi].FailedFrac += d.FailedFrac
		}
		agg.Counters.Salvations += one.Counters.Salvations
		agg.Counters.WalkDrops += one.Counters.WalkDrops
		agg.Counters.WalkExpirations += one.Counters.WalkExpirations
		agg.Counters.ReplyDrops += one.Counters.ReplyDrops
		agg.Counters.LocalRepairs += one.Counters.LocalRepairs
		agg.Counters.FullRouteRepairs += one.Counters.FullRouteRepairs
		agg.Counters.PathReductions += one.Counters.PathReductions
		agg.Counters.Adaptations += one.Counters.Adaptations
		agg.Counters.CacheHits += one.Counters.CacheHits
		agg.Counters.OwnerHits += one.Counters.OwnerHits
		agg.Counters.AdvertiseTimeouts += one.Counters.AdvertiseTimeouts
		agg.Counters.RingEscalations += one.Counters.RingEscalations
		agg.Counters.OverhearReplies += one.Counters.OverhearReplies
		agg.Counters.LookupRetries += one.Counters.LookupRetries
		agg.Counters.Readvertises += one.Counters.Readvertises
		agg.Counters.DeadOriginOps += one.Counters.DeadOriginOps
		agg.Counters.Resizes += one.Counters.Resizes
		agg.Counters.ReadvertiseRetunes += one.Counters.ReadvertiseRetunes
		// Leak counts stay sums: any nonzero leak must survive averaging.
		agg.LeakedOps += one.LeakedOps
		agg.Violations += one.Violations
	}
	f := float64(len(runs))
	agg.HitRatio /= f
	agg.IntersectRatio /= f
	agg.ReplyDropRatio /= f
	agg.AdvertiseAppMsgs /= f
	agg.AdvertiseRoutingMsgs /= f
	agg.LookupAppMsgs /= f
	agg.LookupRoutingMsgs /= f
	agg.AvgPlaced /= f
	agg.AvgLatency /= f
	agg.AvgHopLatency /= f
	agg.LossDrops /= f
	agg.ChurnFails /= f
	agg.ChurnJoins /= f
	// Decay bucket counts stay sums (ratios come from the accessors);
	// only the sampled churned fraction averages.
	for bi := range agg.Decay {
		agg.Decay[bi].FailedFrac /= f
	}
	agg.Runs = len(runs)
	return agg
}

// sweepResults runs one scenario per element, each averaged over p.Seeds
// seeds, with the profile's parallelism, and returns results in input order
// — for tables that read several results side by side (see points for the
// row-per-point figures). The background context never cancels, so the
// error is impossible by construction.
func sweepResults(p Profile, scs []Scenario) []Result {
	res, _ := RunSweep(context.Background(), NewSweep(scs, p.Seeds), p.Parallel)
	return res
}
