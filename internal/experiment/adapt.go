package experiment

import (
	"fmt"

	"probquorum/internal/check"
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
// -parallel setting.

const (
	// adaptDurationSecs is the measured span per run at full horizon.
	adaptDurationSecs = 600.0
	// adaptBucketSecs is the time-series resolution.
	adaptBucketSecs = 30.0
)

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

// AdaptBucket is one time bucket of a variant's trajectory. The tally and
// Msgs are sums over merged seeds; the gauges are means.
type AdaptBucket struct {
	// T is the bucket start, seconds since the measured span began.
	T float64
	// Tally counts lookups issued in the bucket.
	Tally
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

// means lists the bucket's gauges, which a merge averages over seeds.
func (b *AdaptBucket) means() []*float64 {
	return []*float64{&b.AliveN, &b.NHat, &b.Qa, &b.Ql}
}

// AdaptVariantResult is one (drift, variant) cell, merged over seeds.
type AdaptVariantResult struct {
	Drift, Variant string
	Buckets        []AdaptBucket
	// Tally is the run total (the sum of the buckets').
	Tally
	// Msgs is total application transmissions over the measured span.
	Msgs float64
	// Resizes and Retunes are controller actions per seed (0 for static).
	Resizes, Retunes float64
	// Report is the invariant suite's verdict, summed over seeds: its
	// Violations and leaked ops must be 0.
	Report check.Report
}

// means lists the cell's per-seed averages.
func (r *AdaptVariantResult) means() []*float64 {
	return []*float64{&r.Resizes, &r.Retunes}
}

// SettledIntersect is the intersection ratio over the final third of the
// measured span — after every drift shape has fully landed.
func (r AdaptVariantResult) SettledIntersect() float64 {
	var settled Tally
	for _, b := range r.Buckets[len(r.Buckets)*2/3:] {
		settled.add(b.Tally)
	}
	return settled.IntersectRatio()
}

// MsgsPerLookup is total application transmissions over total lookups — a
// per-op cost that charges the adaptive variant for its probe walks too.
func (r AdaptVariantResult) MsgsPerLookup() float64 {
	return ratio(r.Msgs, float64(r.Lookups))
}

// AdaptDriftResult pairs the two variants of one drift shape.
type AdaptDriftResult struct {
	Drift            string
	Static, Adaptive AdaptVariantResult
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

// Adapt is the adapt tier: one trajectory table per drift shape
// (bit-identical at any Parallel), then each variant's first violation if any.
func Adapt(tc TierConfig) ([]Table, []string, error) {
	var tables []Table
	var notes []string
	var reports []check.Report
	for _, r := range RunAdapt(tc) {
		tables = append(tables, r.Table())
		for _, v := range []AdaptVariantResult{r.Static, r.Adaptive} {
			reports = append(reports, v.Report)
			if len(v.Report.Details) > 0 {
				notes = append(notes, fmt.Sprintf("# %s/%s first violation: %s", r.Drift, v.Variant, v.Report.Details[0]))
			}
		}
	}
	return tables, notes, verdict("adapt", reports...)
}

// RunAdapt executes the full figure: every (drift, variant, seed) cell on
// a pool of Parallel workers, merged per (drift, variant) in seed order so
// the output is bit-identical at any Parallel setting.
func RunAdapt(tc TierConfig) []AdaptDriftResult {
	if tc.Seeds == 0 {
		tc.Seeds = 2
	}
	drifts := adaptDrifts()

	// Cells in (drift, variant, seed) order: each (drift, variant) is
	// tc.Seeds consecutive runs.
	type cell struct {
		drift    adaptDrift
		adaptive bool
		seed     int64
	}
	var cells []cell
	for _, dr := range drifts {
		for _, adaptive := range []bool{false, true} {
			for s := 0; s < tc.Seeds; s++ {
				cells = append(cells, cell{dr, adaptive, tc.Seed + int64(s)})
			}
		}
	}
	runs := make([]AdaptVariantResult, len(cells))
	forEachJob(len(cells), tc.Parallel, func(i int) {
		runs[i] = runAdaptCell(tc, cells[i].drift, cells[i].adaptive, cells[i].seed)
	})

	out := make([]AdaptDriftResult, len(drifts))
	for di, dr := range drifts {
		ofDrift := runs[di*2*tc.Seeds:]
		out[di] = AdaptDriftResult{
			Drift:    dr.name,
			Static:   mergeAdapt(ofDrift[:tc.Seeds]),
			Adaptive: mergeAdapt(ofDrift[tc.Seeds : 2*tc.Seeds]),
		}
	}
	return out
}

// mergeAdapt folds one cell's per-seed runs together: tallies, message counts
// and reports sum; the fields of the two means() lists average.
func mergeAdapt(runs []AdaptVariantResult) AdaptVariantResult {
	agg := AdaptVariantResult{Drift: runs[0].Drift, Variant: runs[0].Variant}
	for _, one := range runs {
		for bi := range one.Buckets {
			b := &one.Buckets[bi]
			if bi >= len(agg.Buckets) {
				agg.Buckets = append(agg.Buckets, AdaptBucket{T: b.T})
			}
			ab := &agg.Buckets[bi]
			ab.add(b.Tally)
			ab.Msgs += b.Msgs
			addMeans(ab.means(), b.means())
		}
		agg.add(one.Tally)
		agg.Msgs += one.Msgs
		addMeans(agg.means(), one.means())
		agg.Report.Add(one.Report)
	}
	for bi := range agg.Buckets {
		divMeans(agg.Buckets[bi].means(), len(runs))
	}
	divMeans(agg.means(), len(runs))
	return agg
}

// runAdaptCell executes one (drift, variant, seed) run.
func runAdaptCell(tc TierConfig, dr adaptDrift, adaptive bool, seed int64) AdaptVariantResult {
	const (
		epsilon       = 0.1
		warmupSecs    = 30
		advPeriod     = 2.0
		lookupPeriod  = 0.5
		keyWindow     = 30
		readvertise   = 40.0
		lookupTimeout = 10.0
	)
	// The horizon-scaled measured span, at least three buckets.
	d := max(adaptDurationSecs*tc.horizon(), 90)

	sc := idealOracleScenario(dr.n0, seed)
	sc.Link.AvgDegree = dr.avgDegree
	sc.JoinFraction = dr.joinFraction
	sc.WarmupSecs = warmupSecs
	qa, ql := quorum.SizeForEpsilon(dr.n0, epsilon, 1)
	sc.Quorum = quorum.Config{
		AdvertiseStrategy: quorum.Random, LookupStrategy: quorum.Random,
		AdvertiseSize: qa, LookupSize: ql,
		EarlyHalt: true, Salvation: true, ReplyPathReduction: true,
		LookupTimeout:   lookupTimeout,
		ReadvertiseSecs: readvertise,
	}
	if adaptive {
		sc.Members.Estimation = membership.EstimationConfig{Enable: true, ProbeWalks: 24}
	}
	st := sc.build()
	engine, net, members, sys, suite := st.Engine, st.Net, st.Members, st.Sys, st.Suite
	rng := engine.NewStream()
	proc := st.Churn(churn.Config{Schedule: dr.events(d)})

	var ctl *quorum.Controller
	if adaptive {
		ctl = quorum.NewController(sys, members, quorum.AdaptConfig{MaxReadvertiseSecs: 120})
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
			suite.Lookup(origin, key, res.Buckets[bi].record)
		})
	}

	// Drain past every op horizon (advertise deadline dominates).
	qc := sys.Config()
	engine.Run(loadStart + d + max(qc.AdvertiseTimeoutSecs, qc.LookupHorizon()) + 30)

	for _, b := range res.Buckets {
		res.add(b.Tally)
		res.Msgs += b.Msgs
	}
	res.Report = suite.Final()
	if ctl != nil {
		st := ctl.Status()
		res.Resizes = float64(st.Resizes)
		res.Retunes = float64(st.Retunes)
	}
	return res
}
