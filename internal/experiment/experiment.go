// Package experiment reproduces the paper's simulation study: it builds a
// full stack (mobility → PHY/MAC → AODV → membership → quorum), runs the
// paper's two-phase workload (advertisements, then lookups; Section 8),
// injects churn between the phases when asked, and reports the metrics the
// figures plot — hit ratio, intersection probability, messages per
// operation with and without routing overhead, and reply-drop counts —
// averaged over seeds. Lookup outcomes are counted in one type, Tally, by
// every workload in the package (the two-phase run's decay buckets, the chaos
// phases, the adapt trajectories); a merge over seeds sums tallies and the
// counters of quorum.Counters and check.Report through their own Add, and
// averages only what Result.means lists.
package experiment

import (
	"fmt"
	"math"
	"math/rand"

	"probquorum/internal/check"
	"probquorum/internal/churn"
	"probquorum/internal/netstack"
	"probquorum/internal/quorum"
	"probquorum/internal/stack"
)

// Scenario is one simulation run: the stack to build (the embedded Spec — its
// fields are promoted, so sc.N, sc.Seed, sc.Quorum, sc.Link.Stack,
// sc.Members.RefreshSecs are the stack's own options, documented there) plus
// the paper's two-phase workload and the churn injected around it. Zero values
// take the paper's defaults (Fig. 2) where they exist; N defaults to 100, and
// Spec.JoinSlots is owned by the run, which sizes it from the churn settings.
type Scenario struct {
	stack.Spec
	// Advertisements and Lookups size the workload (paper: 100 and 1000,
	// the latter from LookupNodes=25 random nodes).
	Advertisements, Lookups, LookupNodes int
	// WarmupSecs runs the network before the workload (paper: 200).
	WarmupSecs float64
	// FailFraction / JoinFraction inject churn between the phases: the
	// fraction of N to crash and to newly join (Section 8.7). Joining
	// nodes are pre-allocated and kept down until the churn point.
	FailFraction, JoinFraction float64
	// ChurnFailRate / ChurnJoinRate run a *continuous* churn process over
	// the lookup phase instead: Poisson fail and join events in nodes per
	// second (the §6.1 process model). Joining nodes come from a
	// pre-allocated fresh pool, then from reboots of crashed nodes; every
	// joiner starts with volatile state cleared. Mutually exclusive with
	// the one-shot FailFraction/JoinFraction churn.
	ChurnFailRate, ChurnJoinRate float64
	// ChurnStartSecs delays the continuous process relative to the start
	// of the lookup phase.
	ChurnStartSecs float64
	// ChurnDurationSecs bounds the continuous process; zero runs it for
	// the whole lookup-issue span.
	ChurnDurationSecs float64
	// DecayBucketSecs, when positive, buckets lookup outcomes by issue
	// time into Result.Decay — the measured intersection probability over
	// time as churn accumulates, comparable to §6.1's ε^(1−f(t)).
	DecayBucketSecs float64
	// AdjustLookupSize recomputes |Qℓ| for the post-churn network size
	// (Section 6.1's "adjusted" variant, used by Fig. 14(f)).
	AdjustLookupSize bool
	// LookupAbsentKeys makes every lookup query a never-advertised key,
	// measuring the paper's "cost of a lookup miss" (Fig. 16): the whole
	// target quorum is paid, with no early-halting savings.
	LookupAbsentKeys bool
}

func (sc *Scenario) fillDefaults() {
	if sc.N == 0 {
		sc.N = 100
	}
	if sc.Advertisements == 0 {
		sc.Advertisements = 100
	}
	if sc.Lookups == 0 {
		sc.Lookups = 1000
	}
	if sc.LookupNodes == 0 {
		sc.LookupNodes = 25
	}
	if sc.WarmupSecs == 0 {
		if sc.Link.Stack == netstack.StackIdeal {
			sc.WarmupSecs = 30
		} else {
			sc.WarmupSecs = 60
		}
	}
}

// continuousChurn reports whether the scenario runs the Poisson process
// (as opposed to the one-shot between-phase churn).
func (sc *Scenario) continuousChurn() bool {
	return sc.ChurnFailRate > 0 || sc.ChurnJoinRate > 0
}

// advertiseGapSecs and lookupGapSecs pace the two phases: one advertise a
// second, then about three lookups a second.
const (
	advertiseGapSecs = 1.0
	lookupGapSecs    = 0.35
)

// lookupSpanSecs is the duration of the lookup-issue phase. Call after
// fillDefaults.
func (sc *Scenario) lookupSpanSecs() float64 {
	return float64(sc.Lookups) * lookupGapSecs
}

// churnDuration is how long the continuous process runs. Call after
// fillDefaults.
func (sc *Scenario) churnDuration() float64 {
	if sc.ChurnDurationSecs > 0 {
		return sc.ChurnDurationSecs
	}
	return sc.lookupSpanSecs()
}

// joinSlots is how many extra node slots are pre-allocated (kept down until
// they join): under continuous churn ⌈JoinRate·duration⌉ plus slack. Call
// after fillDefaults.
func (sc *Scenario) joinSlots() int {
	if sc.continuousChurn() {
		return int(math.Ceil(sc.ChurnJoinRate*sc.churnDuration())) + 2
	}
	return int(math.Round(sc.JoinFraction * float64(sc.N)))
}

// Result aggregates one run's measurements (or a mean over seeds).
type Result struct {
	// HitRatio is the fraction of lookups whose reply reached the origin
	// — the paper's hit ratio / intersection probability measurement.
	HitRatio float64
	// IntersectRatio counts lookups whose quorum touched a holder of the
	// key, regardless of reply fate (Fig. 13(b)).
	IntersectRatio float64
	// ReplyDropRatio is IntersectRatio − HitRatio expressed over
	// intersecting lookups (Fig. 13(c)'s reply loss).
	ReplyDropRatio float64
	// AdvertiseAppMsgs is application messages per advertise operation.
	AdvertiseAppMsgs float64
	// AdvertiseRoutingMsgs is AODV control messages per advertise.
	AdvertiseRoutingMsgs float64
	// LookupAppMsgs is application messages per lookup operation.
	LookupAppMsgs float64
	// LookupRoutingMsgs is AODV control messages per lookup.
	LookupRoutingMsgs float64
	// AvgPlaced is the mean AdvertiseResult.Placed, a lower bound on the quorum written.
	AvgPlaced float64
	// AvgLatency is the mean hit latency in seconds.
	AvgLatency float64
	// AvgHopLatency is the mean per-transmission MAC latency over the
	// whole run (netstack's LatHop accumulator).
	AvgHopLatency float64
	// LossDrops counts frames dropped by the injected per-hop loss
	// process over the whole run.
	LossDrops float64
	// ChurnFails / ChurnJoins count continuous-churn events over the run
	// (averaged over seeds).
	ChurnFails, ChurnJoins float64
	// Counters are the quorum protocol diagnostics.
	Counters quorum.Counters
	// Decay holds the per-time-bucket lookup outcomes when
	// DecayBucketSecs is set (tallies are sums over merged runs).
	Decay []DecayPoint
	// LeakedOps counts operations still registered in the quorum system's
	// pending maps after the final drain (summed over merged runs) — the
	// drain assertion of the op-termination leak audit. Any nonzero value
	// is a leaked termination path: under open-loop load it is unbounded
	// memory, so tests gate it at exactly zero.
	LeakedOps int
	// Violations counts breaches of the invariant suite every run is armed
	// with (internal/check; summed over merged runs). Always zero unless
	// there is a bug.
	Violations int
	// Runs is how many seeds were averaged.
	Runs int
}

// means lists the fields a merge averages over seeds; every other number in a
// Result is a sum. Ratios and latencies here have per-seed denominators, so
// the merged value is the mean of the per-seed values, not a pooled ratio.
func (r *Result) means() []*float64 {
	return []*float64{
		&r.HitRatio, &r.IntersectRatio, &r.ReplyDropRatio,
		&r.AdvertiseAppMsgs, &r.AdvertiseRoutingMsgs, &r.LookupAppMsgs, &r.LookupRoutingMsgs,
		&r.AvgPlaced, &r.AvgLatency, &r.AvgHopLatency,
		&r.LossDrops, &r.ChurnFails, &r.ChurnJoins,
	}
}

// Tally is the paper's outcome triple, the one counter of lookup outcomes the
// package has: lookups issued, lookups whose reply reached the origin (§8's
// hit ratio), and lookups whose quorum touched a holder of the key whatever
// became of the reply (the event Lemma 5.2 bounds below by 1−ε). Merged runs
// sum it.
type Tally struct {
	Lookups, Hits, Intersects int
}

// record counts one finished lookup's outcome; the issuer counts Lookups.
func (t *Tally) record(r quorum.LookupResult) {
	if r.Hit {
		t.Hits++
	}
	if r.Intersected {
		t.Intersects++
	}
}

// add sums another tally in.
func (t *Tally) add(o Tally) {
	t.Lookups += o.Lookups
	t.Hits += o.Hits
	t.Intersects += o.Intersects
}

// HitRatio is the measured hit fraction.
func (t Tally) HitRatio() float64 { return ratio(t.Hits, t.Lookups) }

// IntersectRatio is the measured intersection fraction.
func (t Tally) IntersectRatio() float64 { return ratio(t.Intersects, t.Lookups) }

// DecayPoint is one time bucket of the decay-over-time measurement: the
// outcomes of lookups *issued* within [T, T+DecayBucketSecs) seconds of the
// lookup phase start, plus the cumulative churned fraction at the bucket's
// end. Lookups whose origin had crashed by issue time are excluded — the
// §6.1 closed forms condition on a live client.
type DecayPoint struct {
	// T is the bucket start, seconds since the lookup phase began.
	T float64
	Tally
	// FailedFrac is f(t) = cumulative fails / N sampled at the bucket
	// end, averaged over merged runs. 1−ε^(1−f(t)) is the §6.1 predicted
	// intersection probability for this bucket.
	FailedFrac float64
}

// means lists what a merge averages in a bucket: the sampled churned fraction.
func (d *DecayPoint) means() []*float64 { return []*float64{&d.FailedFrac} }

// build assembles the scenario's stack, invariant suite armed, with the join
// pool the churn settings need.
func (sc Scenario) build() *stack.Stack {
	sc.fillDefaults()
	sc.JoinSlots = sc.joinSlots()
	return stack.Build(sc.Spec)
}

// Run executes one scenario and returns its measurements.
func Run(sc Scenario) Result {
	res, _ := run(sc)
	return res
}

// run is Run plus the invariant suite's full report.
func run(sc Scenario) (Result, check.Report) {
	sc.fillDefaults()
	st := sc.build()
	engine, net, sys, suite := st.Engine, st.Net, st.Sys, st.Suite
	rng := engine.NewStream()

	engine.Run(sc.WarmupSecs)

	// Phase 1: advertisements by random nodes (paper: 100, RANDOM 2√n).
	keys := make([]string, sc.Advertisements)
	adStart := net.Stats().Snapshot()
	var placedSum int
	for i := 0; i < sc.Advertisements; i++ {
		keys[i] = fmt.Sprintf("item-%d", i)
		origin := net.RandomAliveID(rng)
		key, value := keys[i], fmt.Sprintf("loc-of-%d", i)
		engine.Schedule(float64(i)*advertiseGapSecs, func() {
			suite.Advertise(origin, key, value, func(r quorum.AdvertiseResult) {
				placedSum += r.Placed
			})
		})
	}
	engine.Run(engine.Now() + float64(sc.Advertisements)*advertiseGapSecs + 30)
	adDiff := net.Stats().DiffSince(adStart)

	// Churn: either the continuous Poisson process over the lookup phase,
	// or the paper's one-shot event between the phases (Section 8.7).
	var proc *churn.Process
	if sc.continuousChurn() {
		proc = st.Churn(churn.Config{FailRate: sc.ChurnFailRate, JoinRate: sc.ChurnJoinRate})
		engine.Schedule(sc.ChurnStartSecs, proc.Start)
		engine.Schedule(sc.ChurnStartSecs+sc.churnDuration(), proc.Stop)
	} else {
		fails := int(math.Round(sc.FailFraction * float64(sc.N)))
		if fails > 0 {
			for _, id := range pickDistinct(rng, net, sc.N, fails) {
				net.Fail(id)
			}
		}
		for id := sc.N; id < net.N(); id++ {
			net.Revive(id)
		}
		if fails > 0 || net.N() > sc.N {
			st.Members.RefreshAll()
			if sc.AdjustLookupSize {
				sys.SetLookupSize(adjustedLookupSize(sc.Quorum.LookupSize, sc.N, net.NumAlive()))
			}
			engine.Run(engine.Now() + 5)
		}
	}

	// Phase 2: lookups from LookupNodes random nodes (paper: 1000 by 25).
	lkStart := net.Stats().Snapshot()
	lookupOrigins := make([]int, sc.LookupNodes)
	for i := range lookupOrigins {
		lookupOrigins[i] = net.RandomAliveID(rng)
	}
	// Decay buckets slice the lookup phase by issue time; each bucket's
	// churned fraction f(t) is sampled at its end for the §6.1 comparison.
	var decay []DecayPoint
	if sc.DecayBucketSecs > 0 {
		nb := int(math.Ceil(sc.lookupSpanSecs() / sc.DecayBucketSecs))
		if nb < 1 {
			nb = 1
		}
		decay = make([]DecayPoint, nb)
		for b := range decay {
			decay[b].T = float64(b) * sc.DecayBucketSecs
			b := b
			engine.Schedule(float64(b+1)*sc.DecayBucketSecs, func() {
				if proc != nil {
					decay[b].FailedFrac = float64(proc.Stats().Fails) / float64(sc.N)
				}
			})
		}
	}

	var latencySum float64
	for i := 0; i < sc.Lookups; i++ {
		origin := lookupOrigins[i%len(lookupOrigins)]
		key := keys[rng.Intn(len(keys))]
		if sc.LookupAbsentKeys {
			key = fmt.Sprintf("absent-%d", i)
		}
		issueAt := float64(i) * lookupGapSecs
		bucket := -1
		if len(decay) > 0 {
			if b := int(issueAt / sc.DecayBucketSecs); b < len(decay) {
				bucket = b
			}
		}
		engine.Schedule(issueAt, func() {
			if !net.Alive(origin) {
				// Origin died under churn: a global miss, but excluded from
				// the buckets (§6.1 assumes a live client).
				return
			}
			if bucket >= 0 {
				decay[bucket].Lookups++
			}
			suite.Lookup(origin, key, func(r quorum.LookupResult) {
				if r.Hit {
					latencySum += r.Latency
				}
				if bucket >= 0 {
					decay[bucket].record(r)
				}
			})
		})
	}
	// Drain long enough for the last lookup to exhaust its retry ladder
	// (horizon and margin are one addend, as the recorded runs summed them).
	engine.Run(engine.Now() + sc.lookupSpanSecs() + (sys.Config().LookupHorizon() + 30))
	lkDiff := net.Stats().DiffSince(lkStart)

	// The suite's verdict includes the drain assertions: every op resolved
	// exactly once, nothing pending past its settlement horizon (ops still
	// inside it — e.g. from a re-advertise tick during the drain tail — are
	// in flight, not leaked).
	rep := suite.Final()
	res := Result{Runs: 1, Counters: sys.Counters(), Decay: decay, Violations: rep.Violations}
	res.LeakedOps = rep.LeakedLookups + rep.LeakedAds
	res.AvgHopLatency = net.Stats().Latency(netstack.LatHop).Mean()
	res.LossDrops = float64(net.Stats().Get(netstack.CtrLossDrops))
	if proc != nil {
		cs := proc.Stats()
		res.ChurnFails = float64(cs.Fails)
		res.ChurnJoins = float64(cs.Joins)
	}
	if sc.Lookups > 0 {
		res.HitRatio = float64(rep.Hits) / float64(sc.Lookups)
		res.IntersectRatio = float64(rep.Intersections) / float64(sc.Lookups)
		res.LookupAppMsgs = float64(lkDiff.Get(netstack.CtrAppMsgs)) / float64(sc.Lookups)
		res.LookupRoutingMsgs = float64(lkDiff.Get(netstack.CtrRoutingMsgs)) / float64(sc.Lookups)
	}
	res.ReplyDropRatio = ratio(rep.Intersections-rep.Hits, rep.Intersections)
	if rep.Hits > 0 {
		res.AvgLatency = latencySum / float64(rep.Hits)
	}
	if sc.Advertisements > 0 {
		res.AdvertiseAppMsgs = float64(adDiff.Get(netstack.CtrAppMsgs)) / float64(sc.Advertisements)
		res.AdvertiseRoutingMsgs = float64(adDiff.Get(netstack.CtrRoutingMsgs)) / float64(sc.Advertisements)
		res.AvgPlaced = float64(placedSum) / float64(sc.Advertisements)
	}
	return res, rep
}

// RunSeeds averages the scenario over `seeds` runs with seeds base,
// base+1, … (the paper averages 10 runs per data point). It is the
// single-point, single-worker form of RunSweep.
func RunSeeds(sc Scenario, seeds int) Result {
	return RunSweep([]Point{{Scenario: sc, Seeds: seeds}}, 1)[0]
}

// pickDistinct draws k distinct live ids among 0..limit-1.
func pickDistinct(rng *rand.Rand, net *netstack.Network, limit, k int) []int {
	chosen := map[int]bool{}
	out := make([]int, 0, k)
	for len(out) < k {
		id := rng.Intn(limit)
		if !chosen[id] && net.Alive(id) {
			chosen[id] = true
			out = append(out, id)
		}
		if len(chosen) >= limit {
			break
		}
	}
	return out
}

// adjustedLookupSize rescales |Qℓ| with √(n(t)/n(0)) (Section 6.1's
// |Qℓ(t)| = C√n(t)).
func adjustedLookupSize(base, n0, nt int) int {
	if base <= 0 || n0 <= 0 {
		return base
	}
	k := int(math.Round(float64(base) * math.Sqrt(float64(nt)/float64(n0))))
	if k < 1 {
		k = 1
	}
	return k
}
