//pqlint:allow nowallclock(adapt records per-drift wall clock for its bench lines only; the data tables and every simulation outcome depend solely on the seed)

package experiment

import (
	"context"
	"fmt"
	"time"

	"probquorum/internal/churn"
	"probquorum/internal/membership"
	"probquorum/internal/netstack"
	"probquorum/internal/quorum"
	"probquorum/internal/sim"
)

// The adapt figure is the chaos validation of the closed control loop:
// statically sized quorums against the adaptive controller, on networks
// whose size drifts 2×–10× mid-run. Three drift shapes cover the failure
// modes the loop must survive:
//
//   - join3x: a mass join triples n in one burst. Static sizes keep the
//     Corollary 5.3 product sized for n₀, so the non-intersection bound
//     degrades from ε to ε^(1/3) — intersection visibly decays. The
//     controller must detect the growth through the birthday-paradox
//     estimator and grow both quorums back to the bound.
//   - fail2x: a mass failure halves n. Intersection *improves* for the
//     static sizes (the product now over-covers), so the controller's job
//     is economic: shrink the quorums and keep the target with roughly
//     half the per-op messages.
//   - ramp4x: n quadruples through a spread ramp of small joins — the
//     drift no single estimate window sees as a step. The controller must
//     track continuously without oscillating.
//
// Both variants run the same workload, churn schedule, and invariant suite
// (internal/check, including the pending-op drain and the controller's
// resize-bounds watch). The stack is ideal links + oracle routing so the
// figure measures the quorum layer, not route discovery. All randomness
// comes from engine streams: the data tables are bit-identical at any
// -parallel setting; wall clock appears only in bench lines.

// AdaptFigConfig sizes the adapt figure. Zero values take defaults.
type AdaptFigConfig struct {
	// Seeds is how many seeds each (drift, variant) cell averages
	// (default 2).
	Seeds int
	// Seed is the base seed; run i uses Seed+i.
	Seed int64
	// Parallel is the worker-pool width across cells (0 = all cores).
	Parallel int
	// Horizon scales the run down for smoke tests: duration shrinks by
	// min(1, Horizon) when in (0,1).
	Horizon float64
}

const (
	// adaptDurationSecs is the measured span per run at full horizon.
	adaptDurationSecs = 600.0
	// adaptBucketSecs is the time-series resolution.
	adaptBucketSecs = 30.0
)

// durationSecs is the horizon-scaled measured span, at least three buckets.
func (ac AdaptFigConfig) durationSecs() float64 {
	return max(adaptDurationSecs*clampHorizon(ac.Horizon), 90)
}

// adaptDrift is one population-drift shape.
type adaptDrift struct {
	name string
	// n0 is the initial population; joinFraction pre-allocates the join
	// pool as a fraction of n0.
	n0           int
	avgDegree    float64
	joinFraction float64
	// events builds the deterministic churn schedule for a duration.
	events func(d float64) []churn.Event
}

func adaptDrifts() []adaptDrift {
	return []adaptDrift{
		{
			name: "join3x", n0: 100, avgDegree: 12, joinFraction: 2.0,
			events: func(d float64) []churn.Event {
				return []churn.Event{{At: d / 3, Op: churn.Join, Count: 200}}
			},
		},
		{
			name: "fail2x", n0: 240, avgDegree: 16, joinFraction: 0,
			events: func(d float64) []churn.Event {
				return []churn.Event{{At: d / 3, Op: churn.Fail, Count: 120}}
			},
		},
		{
			name: "ramp4x", n0: 80, avgDegree: 12, joinFraction: 3.0,
			events: func(d float64) []churn.Event {
				// 24 bursts of 10 spread over the middle half: a ramp no
				// single estimator window sees as a step.
				ev := make([]churn.Event, 24)
				step := (d / 2) / 24
				for i := range ev {
					ev[i] = churn.Event{At: d/4 + float64(i)*step, Op: churn.Join, Count: 10}
				}
				return ev
			},
		},
	}
}

// AdaptBucket is one time bucket of a variant's trajectory. Counts are
// sums over merged seeds; gauges are means.
type AdaptBucket struct {
	// T is the bucket start, seconds since the measured span began.
	T float64
	// Lookups, Hits, Intersects count lookups issued in the bucket.
	Lookups, Hits, Intersects float64
	// Msgs is application-layer transmissions during the bucket.
	Msgs float64
	// AliveN is the live population at the bucket's end.
	AliveN float64
	// NHat is the controller's estimate at the bucket's end (0 for the
	// static variant or before the first usable estimate).
	NHat float64
	// Qa, Ql are the applied quorum sizes at the bucket's end.
	Qa, Ql float64
}

// IntersectRatio is the bucket's measured intersection fraction.
func (b AdaptBucket) IntersectRatio() float64 {
	return ratio(b.Intersects, b.Lookups)
}

// HitRatio is the bucket's measured hit fraction.
func (b AdaptBucket) HitRatio() float64 {
	return ratio(b.Hits, b.Lookups)
}

// AdaptVariantResult is one (drift, variant) cell, merged over seeds.
type AdaptVariantResult struct {
	Drift, Variant string
	Buckets        []AdaptBucket
	// Lookups / Hits / Intersects are run totals (sums over seeds).
	Lookups, Hits, Intersects float64
	// Msgs is total application transmissions over the measured span.
	Msgs float64
	// Resizes and Retunes are controller actions (0 for static).
	Resizes, Retunes float64
	// Violations sums invariant breaches over seeds; FirstViolation keeps
	// one detail for diagnostics.
	Violations     int
	FirstViolation string
	// LeakedOps sums pending-map leaks over seeds (must be 0).
	LeakedOps float64
	// WallSecs is real elapsed time (bench lines only; not in tables).
	WallSecs float64
}

// SettledIntersect is the intersection ratio over the final third of the
// measured span — after every drift shape has fully landed.
func (r AdaptVariantResult) SettledIntersect() float64 {
	var lk, in float64
	start := len(r.Buckets) * 2 / 3
	for _, b := range r.Buckets[start:] {
		lk += b.Lookups
		in += b.Intersects
	}
	return ratio(in, lk)
}

// MsgsPerLookup is total application transmissions over total lookups — a
// per-op cost that charges the adaptive variant for its probe walks too.
func (r AdaptVariantResult) MsgsPerLookup() float64 {
	return ratio(r.Msgs, r.Lookups)
}

// AdaptDriftResult pairs the two variants of one drift shape.
type AdaptDriftResult struct {
	Drift            string
	Static, Adaptive AdaptVariantResult
}

// BenchLine renders the drift cell in go-bench format for cmd/benchjson:
// ns/op is the cell's wall clock; the custom metrics carry the settled
// intersection ratios, per-lookup message costs, and resize count.
func (r AdaptDriftResult) BenchLine() string {
	return fmt.Sprintf("BenchmarkAdapt/drift=%s%s 1 %d ns/op %.3f static-intersect %.3f adaptive-intersect %.1f static-msgs-per-lookup %.1f adaptive-msgs-per-lookup %.0f resizes",
		r.Drift, procsSuffix(), int64((r.Static.WallSecs+r.Adaptive.WallSecs)*1e9),
		r.Static.SettledIntersect(), r.Adaptive.SettledIntersect(),
		r.Static.MsgsPerLookup(), r.Adaptive.MsgsPerLookup(),
		r.Adaptive.Resizes)
}

// Table renders the drift's bucket-by-bucket trajectory.
func (r AdaptDriftResult) Table() Table {
	t := Table{
		Title: fmt.Sprintf("adapt — %s: static vs adaptive sizing under drifting n", r.Drift),
		Header: []string{"t", "alive", "n-hat", "|Qa|", "|Ql|",
			"static-int", "adapt-int", "static-hit", "adapt-hit",
			"static-msgs", "adapt-msgs"},
	}
	for i, ab := range r.Adaptive.Buckets {
		sb := AdaptBucket{}
		if i < len(r.Static.Buckets) {
			sb = r.Static.Buckets[i]
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.0f", ab.T),
			fmt.Sprintf("%.0f", ab.AliveN),
			fmt.Sprintf("%.0f", ab.NHat),
			fmt.Sprintf("%.1f", ab.Qa),
			fmt.Sprintf("%.1f", ab.Ql),
			f2(sb.IntersectRatio()), f2(ab.IntersectRatio()),
			f2(sb.HitRatio()), f2(ab.HitRatio()),
			fmt.Sprintf("%.0f", sb.Msgs), fmt.Sprintf("%.0f", ab.Msgs),
		})
	}
	t.Rows = append(t.Rows, []string{"settled", "", "", "", "",
		f2(r.Static.SettledIntersect()), f2(r.Adaptive.SettledIntersect()),
		"", "",
		fmt.Sprintf("%.1f/lk", r.Static.MsgsPerLookup()),
		fmt.Sprintf("%.1f/lk", r.Adaptive.MsgsPerLookup()),
	})
	return t
}

// RunAdapt executes the full figure: every (drift, variant, seed) cell on
// a pool of Parallel workers, merged per (drift, variant) in index order so
// the output is bit-identical at any Parallel setting.
func RunAdapt(ac AdaptFigConfig) []AdaptDriftResult {
	if ac.Seeds == 0 {
		ac.Seeds = 2
	}
	drifts := adaptDrifts()

	type cell struct {
		drift    int
		adaptive bool
		seed     int64
	}
	var cells []cell
	for di := range drifts {
		for _, adaptive := range []bool{false, true} {
			for s := 0; s < ac.Seeds; s++ {
				cells = append(cells, cell{di, adaptive, ac.Seed + int64(s)})
			}
		}
	}
	runs := make([]AdaptVariantResult, len(cells))
	// Background context never cancels, so the error is impossible.
	_ = forEachJob(context.Background(), len(cells), ac.Parallel, func(i int) {
		start := time.Now()
		runs[i] = runAdaptCell(ac, drifts[cells[i].drift], cells[i].adaptive, cells[i].seed)
		runs[i].WallSecs = time.Since(start).Seconds()
	})

	out := make([]AdaptDriftResult, len(drifts))
	for di := range drifts {
		out[di].Drift = drifts[di].name
		for i, c := range cells {
			if c.drift != di {
				continue
			}
			if c.adaptive {
				out[di].Adaptive = mergeAdaptRuns(out[di].Adaptive, runs[i])
			} else {
				out[di].Static = mergeAdaptRuns(out[di].Static, runs[i])
			}
		}
		finishAdaptMerge(&out[di].Static, ac.Seeds)
		finishAdaptMerge(&out[di].Adaptive, ac.Seeds)
	}
	return out
}

// mergeAdaptRuns folds one seed's run into the accumulating cell: counts
// sum (gauges are averaged afterwards by finishAdaptMerge).
func mergeAdaptRuns(agg, one AdaptVariantResult) AdaptVariantResult {
	if agg.Drift == "" {
		agg.Drift, agg.Variant = one.Drift, one.Variant
	}
	for bi, b := range one.Buckets {
		if bi >= len(agg.Buckets) {
			agg.Buckets = append(agg.Buckets, AdaptBucket{T: b.T})
		}
		ab := &agg.Buckets[bi]
		ab.Lookups += b.Lookups
		ab.Hits += b.Hits
		ab.Intersects += b.Intersects
		ab.Msgs += b.Msgs
		ab.AliveN += b.AliveN
		ab.NHat += b.NHat
		ab.Qa += b.Qa
		ab.Ql += b.Ql
	}
	agg.Lookups += one.Lookups
	agg.Hits += one.Hits
	agg.Intersects += one.Intersects
	agg.Msgs += one.Msgs
	agg.Resizes += one.Resizes
	agg.Retunes += one.Retunes
	agg.Violations += one.Violations
	if agg.FirstViolation == "" {
		agg.FirstViolation = one.FirstViolation
	}
	agg.LeakedOps += one.LeakedOps
	agg.WallSecs += one.WallSecs
	return agg
}

// finishAdaptMerge averages the gauge fields over the merged seeds.
func finishAdaptMerge(r *AdaptVariantResult, seeds int) {
	f := float64(seeds)
	for bi := range r.Buckets {
		r.Buckets[bi].AliveN /= f
		r.Buckets[bi].NHat /= f
		r.Buckets[bi].Qa /= f
		r.Buckets[bi].Ql /= f
	}
	r.Resizes /= f
	r.Retunes /= f
}

// runAdaptCell executes one (drift, variant, seed) run.
func runAdaptCell(ac AdaptFigConfig, dr adaptDrift, adaptive bool, seed int64) AdaptVariantResult {
	const (
		epsilon       = 0.1
		warmupSecs    = 30
		advPeriod     = 2.0
		lookupPeriod  = 0.5
		keyWindow     = 30
		readvertise   = 40.0
		lookupTimeout = 10.0
	)
	d := ac.durationSecs()

	sc := Scenario{
		N: dr.n0, Stack: netstack.StackIdeal, Seed: seed,
		OracleRouting: true,
		AvgDegree:     dr.avgDegree,
		JoinFraction:  dr.joinFraction,
		WarmupSecs:    warmupSecs,
	}
	qa, ql := quorum.SizeForEpsilon(dr.n0, epsilon, 1)
	sc.Quorum = quorum.Config{
		AdvertiseStrategy: quorum.Random, LookupStrategy: quorum.Random,
		AdvertiseSize: qa, LookupSize: ql,
		EarlyHalt: true, Salvation: true, ReplyPathReduction: true,
		LookupTimeout:   lookupTimeout,
		ReadvertiseSecs: readvertise,
	}
	if adaptive {
		sc.Estimation = membership.EstimationConfig{
			Enable: true, ProbeSecs: 10, ProbeWalks: 24,
		}
	}
	st := sc.build()
	engine, net, members, sys, suite := st.Engine, st.Net, st.Members, st.Sys, st.Suite
	rng := engine.NewStream()
	proc := st.Churn(churn.Config{Schedule: dr.events(d)})

	var ctl *quorum.Controller
	if adaptive {
		ctl = quorum.NewController(sys, members, quorum.AdaptConfig{
			PeriodSecs: 20, Epsilon: epsilon,
			MinReadvertiseSecs: 10, MaxReadvertiseSecs: 120,
		})
		defer ctl.Stop()
		proc.OnFail(func(int) { ctl.NoteFail() })
		suite.WatchController(ctl)
	}

	engine.Run(warmupSecs)
	loadStart := engine.Now()
	proc.Start()
	engine.Schedule(d, proc.Stop)

	res := AdaptVariantResult{Drift: dr.name, Variant: "static"}
	if adaptive {
		res.Variant = "adaptive"
	}
	buckets := int(d / adaptBucketSecs)
	if buckets < 1 {
		buckets = 1
	}
	res.Buckets = make([]AdaptBucket, buckets)
	for bi := range res.Buckets {
		res.Buckets[bi].T = float64(bi) * adaptBucketSecs
	}

	// Bucket sampler: gauges at each bucket's end, app-message deltas per
	// bucket.
	stats := net.Stats()
	lastMsgs := stats.Get(netstack.CtrAppMsgs)
	bucketIdx := 0
	sampler := sim.NewTicker(engine, adaptBucketSecs, adaptBucketSecs, func() {
		if bucketIdx >= buckets {
			return
		}
		b := &res.Buckets[bucketIdx]
		now := stats.Get(netstack.CtrAppMsgs)
		b.Msgs = float64(now - lastMsgs)
		lastMsgs = now
		b.AliveN = float64(net.NumAlive())
		if ctl != nil {
			st := ctl.Status()
			b.NHat = st.NHat
			b.Qa, b.Ql = float64(st.AdvertiseSize), float64(st.LookupSize)
		} else {
			qc := sys.Config()
			b.Qa, b.Ql = float64(qc.AdvertiseSize), float64(qc.LookupSize)
		}
		bucketIdx++
	})
	defer sampler.Stop()

	// Workload: a rolling advertise stream (fresh keys, so drift-era
	// placements dominate) and lookups over the most recent key window.
	advs := int(d / advPeriod)
	for i := 0; i < advs; i++ {
		i := i
		engine.Schedule(float64(i)*advPeriod, func() {
			origin := net.RandomAliveID(rng)
			if !net.Alive(origin) {
				return
			}
			suite.Advertise(origin, fmt.Sprintf("ak-%d", i), "v", nil)
		})
	}
	lookups := int(d / lookupPeriod)
	for i := 0; i < lookups; i++ {
		at := float64(i) * lookupPeriod
		engine.Schedule(at, func() {
			// Draw from recently advertised, already-settled keys.
			hi := int((engine.Now()-loadStart)/advPeriod) - 2
			if hi < 1 {
				return
			}
			lo := hi - keyWindow
			if lo < 0 {
				lo = 0
			}
			key := fmt.Sprintf("ak-%d", lo+rng.Intn(hi-lo))
			origin := net.RandomAliveID(rng)
			if !net.Alive(origin) {
				return
			}
			bi := int((engine.Now() - loadStart) / adaptBucketSecs)
			if bi >= buckets {
				bi = buckets - 1
			}
			res.Buckets[bi].Lookups++
			res.Lookups++
			suite.Lookup(origin, key, func(lr quorum.LookupResult) {
				if lr.Hit {
					res.Buckets[bi].Hits++
					res.Hits++
				}
				if lr.Intersected {
					res.Buckets[bi].Intersects++
					res.Intersects++
				}
			})
		})
	}

	// Drain past every op horizon (advertise deadline dominates).
	qc := sys.Config()
	engine.Run(loadStart + d + max(qc.AdvertiseTimeoutSecs, qc.LookupHorizon()) + 30)

	for _, b := range res.Buckets {
		res.Msgs += b.Msgs
	}
	report := suite.Final()
	res.Violations = report.Violations
	if len(report.Details) > 0 {
		res.FirstViolation = report.Details[0].String()
	}
	res.LeakedOps = float64(report.LeakedLookups + report.LeakedAds)
	if ctl != nil {
		st := ctl.Status()
		res.Resizes = float64(st.Resizes)
		res.Retunes = float64(st.Retunes)
	}
	return res
}
