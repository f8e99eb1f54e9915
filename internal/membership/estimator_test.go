package membership

import (
	"math"
	"math/rand"
	"testing"
)

// feedUniform feeds `groups` groups of `k` uniform samples over [0,n) at
// time t, one group per simulated draw.
func feedUniform(e *Estimator, rng *rand.Rand, t float64, groups, k, n int) {
	for g := 0; g < groups; g++ {
		ids := make([]int, k)
		for i := range ids {
			ids[i] = rng.Intn(n)
		}
		e.Observe(t, int64(g)+1, ids)
	}
}

// TestEstimatorRecoversN: with plenty of uniform samples the point estimate
// lands within a factor of two of the true population and the confidence
// band brackets it.
func TestEstimatorRecoversN(t *testing.T) {
	const n = 200
	e := NewEstimator()
	rng := rand.New(rand.NewSource(7))
	feedUniform(e, rng, 0, 12, 10, n)
	est := estimateFrom(e.Evidence(0))
	if !est.OK {
		t.Fatalf("estimate not OK with %.0f pairs", est.Pairs)
	}
	if est.AtLeast {
		t.Fatalf("unexpected at-least estimate: %+v", est)
	}
	if est.N < n/2 || est.N > 2*n {
		t.Fatalf("n̂ = %.0f, want within [%d, %d]", est.N, n/2, 2*n)
	}
	if est.Lo > est.N || est.Hi < est.N {
		t.Fatalf("band [%.0f, %.0f] does not bracket n̂ = %.0f", est.Lo, est.Hi, est.N)
	}
	if est.Lo > float64(n)*1.5 || est.Hi < float64(n)/1.5 {
		t.Fatalf("band [%.0f, %.0f] implausible for true n = %d", est.Lo, est.Hi, n)
	}
}

// TestEstimatorZeroCollision: distinct ids across groups yield the bounded
// "at least" estimate (pairs), never +Inf or garbage.
func TestEstimatorZeroCollision(t *testing.T) {
	e := NewEstimator()
	// Three groups of three globally distinct ids: 27 cross-group pairs,
	// zero collisions.
	e.Observe(0, 1, []int{1, 2, 3})
	e.Observe(0, 2, []int{4, 5, 6})
	e.Observe(0, 3, []int{7, 8, 9})
	est := estimateFrom(e.Evidence(0))
	if !est.OK {
		t.Fatalf("estimate not OK with %.0f pairs", est.Pairs)
	}
	if !est.AtLeast {
		t.Fatalf("zero collisions must report an at-least estimate: %+v", est)
	}
	if math.IsInf(est.N, 0) || est.N < 26.5 || est.N > 27.5 {
		t.Fatalf("at-least n̂ = %v, want the 27 weighted pairs", est.N)
	}
	if !math.IsInf(est.Hi, 1) {
		t.Fatalf("zero-collision Hi must be +Inf, got %v", est.Hi)
	}
}

// TestEstimatorSingleCollision: exactly one collision inverts to
// pairs/1 — finite, and flagged as a (wide-band) point estimate.
func TestEstimatorSingleCollision(t *testing.T) {
	e := NewEstimator()
	e.Observe(0, 1, []int{1, 2, 3})
	e.Observe(0, 2, []int{4, 5, 6})
	e.Observe(0, 3, []int{7, 8, 1}) // one id recurs across groups
	est := estimateFrom(e.Evidence(0))
	if !est.OK || est.AtLeast {
		t.Fatalf("one collision must give a point estimate: %+v", est)
	}
	if math.IsInf(est.N, 0) || est.N < 26.5 || est.N > 27.5 {
		t.Fatalf("n̂ = %v, want pairs/collisions = 27", est.N)
	}
	if est.Hi <= est.N {
		t.Fatalf("single-collision band must be wide above: %+v", est)
	}
}

// TestEstimatorWithinGroupPairsExcluded: samples of one group are drawn
// without replacement (one Pick), so they must produce no evidence at all.
func TestEstimatorWithinGroupPairsExcluded(t *testing.T) {
	e := NewEstimator()
	e.Observe(0, 1, []int{1, 2, 3, 4, 5, 6, 7, 8})
	if p, c := e.Evidence(0); p > 0 || c > 0 {
		t.Fatalf("within-group samples produced evidence: pairs=%.0f coll=%.0f", p, c)
	}
}

// TestEstimatorDecay: evidence halves per half-life, so a long-idle
// estimator drops below minPairs and reports not-OK — stale estimates
// never masquerade as fresh ones.
func TestEstimatorDecay(t *testing.T) {
	e := NewEstimator()
	rng := rand.New(rand.NewSource(3))
	feedUniform(e, rng, 0, 6, 6, 100)
	p0, _ := e.Evidence(0)
	p1, _ := e.Evidence(halfLifeSecs)
	if p1 < 0.45*p0 || p1 > 0.55*p0 {
		t.Fatalf("pairs after one half-life: %.1f of %.1f, want ≈ half", p1, p0)
	}
	if est := estimateFrom(e.Evidence(20 * halfLifeSecs)); est.OK {
		t.Fatalf("estimate still OK after 20 half-lives: %+v", est)
	}
}
