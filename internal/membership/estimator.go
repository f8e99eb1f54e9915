package membership

import (
	"math"

	"probquorum/internal/graph"
)

// Continuous network-size estimation (Section 6.3, made online). The paper
// estimates n once, from the birthday paradox over random-walk endpoints: k
// uniform samples collide in C(k,2)/n pairs on average, so n̂ = pairs /
// collisions. A static system can stop there; an adaptive one cannot — n
// drifts, so the estimate must be continuous, recent-biased, and honest
// about its uncertainty. The Estimator below turns every uniform sample the
// node sees (piggybacked from live quorum accesses, plus optional probe
// walks) into a windowed, exponentially decay-weighted pairs/collisions
// account, from which it derives n̂ with a confidence band.
//
// Sampling independence: two ids drawn by the same Pick (or listed in one
// view) are without replacement — they can never collide — and two Picks
// from the same membership view draw from the same 2√n-element subset, so a
// collision between them estimates the view size, not n. Samples therefore
// carry a group tag (the node's view generation for piggybacked draws; a
// fresh tag per probe-walk endpoint), and only cross-group pairs are
// counted: those are independent uniform draws over the live population.

// EstimationConfig parameterizes the continuous estimator. The zero value
// disables it.
type EstimationConfig struct {
	// Enable turns the estimator on. Off by default: observation costs a
	// few comparisons per quorum access, and disabled runs must stay
	// bit-identical to builds without the estimator.
	Enable bool
	// ProbeSecs, when positive, launches periodic probe walks: every
	// period one live node (round-robin) draws ProbeWalks maximum-degree
	// walk endpoints on a connectivity-graph snapshot and feeds them to
	// its estimator. Like the view refresh, the walks are charged no
	// messages (the paper's amortization argument, DESIGN.md §4).
	ProbeSecs float64
	// ProbeWalks is the number of walk endpoints per probe (default 12).
	ProbeWalks int
}

const (
	// halfLifeSecs is the exponential-decay half-life of the observation
	// window: an observation contributes half its weight after one
	// half-life, a quarter after two, and so on.
	halfLifeSecs = 60.0
	// maxSamples bounds each node's comparison ring. Evicted samples stop
	// generating new pairs but their accumulated weight still decays
	// normally.
	maxSamples = 64
	// minPairs is the decay-weighted pair count below which the estimator
	// reports not-OK: too little evidence for even an "at least" claim.
	minPairs = 8.0
	// bandZ is the normal quantile of the confidence band (~90% two-sided
	// under the Poisson collision model).
	bandZ = 1.64
)

func (ec *EstimationConfig) fillDefaults() {
	if ec.ProbeWalks <= 0 {
		ec.ProbeWalks = 12
	}
}

// Estimate is one reading of the continuous estimator.
type Estimate struct {
	// N is the point estimate n̂ = pairs/collisions — or, when AtLeast is
	// set, the lower bound the zero-collision evidence supports.
	N float64
	// Lo and Hi bound n̂'s confidence band (Hi is +Inf when the evidence
	// cannot bound n from above). The band covers the collision noise
	// only, not view staleness.
	Lo, Hi float64
	// Pairs and Collisions are the decay-weighted evidence behind the
	// estimate.
	Pairs, Collisions float64
	// AtLeast marks a zero-collision reading: with P weighted pairs and
	// no collision, Pr(no collision) = exp(−P/n), so n ≥ P holds with
	// confidence 1−1/e ≈ 63% and N reports that bound instead of +Inf.
	AtLeast bool
	// OK is false while the evidence is below minPairs.
	OK bool
}

// estSample is one buffered uniform sample.
type estSample struct {
	id    int
	group int64
}

// Estimator maintains one node's decay-weighted birthday-paradox account.
type Estimator struct {
	ring []estSample
	next int
	// wPairs and wColl are the decay-weighted cross-group pair and
	// collision accumulators; last is the time they were last decayed to.
	wPairs, wColl float64
	last          float64
}

// NewEstimator builds an empty estimator.
func NewEstimator() *Estimator {
	return &Estimator{ring: make([]estSample, 0, maxSamples)}
}

// decayTo ages the accumulators to time now.
func (e *Estimator) decayTo(now float64) {
	if dt := now - e.last; dt > 0 {
		f := math.Exp(-math.Ln2 * dt / halfLifeSecs)
		e.wPairs *= f
		e.wColl *= f
	}
	e.last = now
}

// Observe feeds one group of uniform samples taken at time now. Every new
// sample is compared against the buffered samples of *other* groups (one
// weighted pair each, a weighted collision on id equality), then buffered.
func (e *Estimator) Observe(now float64, group int64, ids []int) {
	e.decayTo(now)
	for _, id := range ids {
		for _, s := range e.ring {
			if s.group == group {
				continue
			}
			e.wPairs++
			if s.id == id {
				e.wColl++
			}
		}
		if len(e.ring) < maxSamples {
			e.ring = append(e.ring, estSample{id: id, group: group})
		} else {
			e.ring[e.next] = estSample{id: id, group: group}
			e.next = (e.next + 1) % maxSamples
		}
	}
}

// Evidence returns the accumulators decayed to now — the poolable raw
// material behind Estimate (AggregateEstimate sums these across nodes).
func (e *Estimator) Evidence(now float64) (pairs, collisions float64) {
	e.decayTo(now)
	return e.wPairs, e.wColl
}

// Estimate derives the current reading at time now.
func (e *Estimator) Estimate(now float64) Estimate {
	e.decayTo(now)
	return estimateFrom(e.wPairs, e.wColl)
}

// estimateFrom turns pooled (pairs, collisions) evidence into an Estimate.
func estimateFrom(pairs, coll float64) Estimate {
	est := Estimate{Pairs: pairs, Collisions: coll}
	if pairs < minPairs {
		return est
	}
	est.OK = true
	// Below half a weighted collision the inversion would be unbounded
	// (the EstimateN degenerate case): report the zero-collision "at
	// least" bound instead.
	if coll < 0.5 {
		est.AtLeast = true
		est.N = pairs
		est.Lo = pairs
		est.Hi = math.Inf(1)
		return est
	}
	est.N = pairs / coll
	// Collisions are approximately Poisson(pairs/n): ±bandZ·√coll bounds the
	// count, inverted into bounds on n. When the lower count bound hits
	// zero the evidence cannot bound n from above; floor the denominator
	// at half a collision, mirroring the at-least cutoff.
	denomLo := coll + bandZ*math.Sqrt(coll)
	denomHi := coll - bandZ*math.Sqrt(coll)
	if denomHi < 0.5 {
		denomHi = 0.5
	}
	est.Lo = pairs / denomLo
	est.Hi = pairs / denomHi
	if est.Hi < est.N {
		est.Hi = est.N
	}
	return est
}

// Observe feeds one group of uniform samples (a quorum draw from node id's
// view) to id's estimator, tagged with the node's current view generation
// so only draws from independent view refreshes are compared. No-op when
// estimation is disabled.
func (s *Service) Observe(id int, ids []int) {
	if s.est == nil || len(ids) == 0 {
		return
	}
	s.estimatorFor(id).Observe(s.net.Engine().Now(), s.gens[id], ids)
}

// ObserveSample feeds one independent uniform sample (e.g. a random-walk
// endpoint) to id's estimator under a fresh group tag, so it is compared
// against every buffered sample. No-op when estimation is disabled.
func (s *Service) ObserveSample(id, sample int) {
	if s.est == nil {
		return
	}
	s.sampleGroup--
	s.estimatorFor(id).Observe(s.net.Engine().Now(), s.sampleGroup, []int{sample})
}

// estimatorFor lazily creates node id's estimator.
func (s *Service) estimatorFor(id int) *Estimator {
	if s.est[id] == nil {
		s.est[id] = NewEstimator()
	}
	return s.est[id]
}

// AggregateEstimate pools every node's evidence into one network-wide
// reading — the estimate the adaptation controller consumes. Pooling sums
// the decay-weighted (pairs, collisions) accumulators, which is exact: the
// per-node accounts are disjoint comparison sets over the same uniform
// population.
func (s *Service) AggregateEstimate() Estimate {
	if s.est == nil {
		return Estimate{}
	}
	now := s.net.Engine().Now()
	var pairs, coll float64
	for _, e := range s.est {
		if e == nil {
			continue
		}
		p, c := e.Evidence(now)
		pairs += p
		coll += c
	}
	return estimateFrom(pairs, coll)
}

// probe runs one periodic probe: the next live node (round-robin) draws
// ProbeWalks maximum-degree walk endpoints on a snapshot graph and feeds
// each to its estimator under its own group tag (independent walks are
// with-replacement uniform samples, so they may collide with each other).
func (s *Service) probe() {
	start := -1
	for scan := 0; scan < s.net.N(); scan++ {
		id := (s.probeIdx + scan) % s.net.N()
		if s.net.Alive(id) {
			start = id
			s.probeIdx = id + 1
			break
		}
	}
	if start < 0 {
		return
	}
	g := s.snapshotGraph()
	for i := 0; i < s.cfg.Estimation.ProbeWalks; i++ {
		// n/2 steps: the paper's mixing-time estimate for G²(n,r).
		end := graph.Sample(g, s.probeRng, start, s.net.N()/2)
		s.ObserveSample(start, end)
	}
}

// snapshotGraph builds the current connectivity graph from the network's
// neighbor relation.
func (s *Service) snapshotGraph() *graph.Graph {
	g := graph.New(s.net.N())
	for id := 0; id < s.net.N(); id++ {
		if !s.net.Alive(id) {
			continue
		}
		for _, nb := range s.net.Neighbors(id) {
			if nb > id {
				g.AddEdge(id, nb)
			}
		}
	}
	return g
}
