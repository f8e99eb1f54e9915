package experiment

import (
	"math"
	"reflect"
	"testing"

	"probquorum/internal/analysis"
	"probquorum/internal/netstack"
	"probquorum/internal/quorum"
)

// decayProfile scales the §6.1 validation runs: big enough for the
// statistics to settle, small enough for CI.
func decayProfile() Profile {
	return Profile{
		Seeds: 3, Stack: netstack.StackIdeal,
		Advertisements: 30, Lookups: 300, LookupNodes: 10,
		BigN: 100,
	}
}

// TestDecayMatchesSection61 is the §6.1 property test: run the continuous
// churn process to a target fraction f, and check the final-bucket measured
// intersection probability against the closed form 1−ε^(1−f) at the
// *measured* churned fraction, where ε = exp(−|Qa|·|Qℓ|/n) is the designed
// miss probability of the actual quorum sizes.
func TestDecayMatchesSection61(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical validation run")
	}
	p := decayProfile()
	n := p.BigN
	qa, ql := quorum.SizeForEpsilon(n, decayEpsilon, 1)
	eps := quorum.NonIntersectProb(n, qa, ql)
	for _, f := range []float64{0.1, 0.2, 0.3} {
		f := f
		t.Run(f2(f), func(t *testing.T) {
			sc := decayScenario(p, n, 777, f)
			res := RunSeeds(sc, p.Seeds)
			last := res.Decay[len(res.Decay)-1]
			if last.Lookups < 50 {
				t.Fatalf("final bucket has only %d lookups", last.Lookups)
			}
			// The Poisson process must have churned a meaningful fraction.
			if last.FailedFrac < f/2 || last.FailedFrac > 2*f {
				t.Fatalf("measured churn fraction %.3f, target %.2f", last.FailedFrac, f)
			}
			measured := last.IntersectRatio()
			predicted := analysis.DegradationChurn(eps, last.FailedFrac)
			if d := math.Abs(measured - predicted); d > 0.12 {
				t.Fatalf("f=%.1f: measured intersect %.3f vs predicted %.3f (Δ=%.3f, f(t)=%.3f)",
					f, measured, predicted, d, last.FailedFrac)
			}
		})
	}
}

// TestChurnSweepDeterminism extends the bit-for-bit executor guard to the
// new machinery: continuous churn, loss injection and decay buckets must
// merge identically at parallel 1 and parallel 8.
func TestChurnSweepDeterminism(t *testing.T) {
	mk := func(n int, seed int64, rate float64) Scenario {
		sc := testScenario(netstack.StackIdeal, n, seed, 6, 30, 4)
		sc.Quorum = mixConfig(n, quorum.Random, quorum.Random)
		sc.ChurnFailRate, sc.ChurnJoinRate = rate, rate
		sc.DecayBucketSecs, sc.Link.RxLossProb = 3, 0.05
		sc.Quorum.LookupRetries = 1
		sc.Quorum.ReadvertiseSecs = 5
		return sc
	}
	pts := []Point{
		{Scenario: mk(50, 21, 0.4), Seeds: 2},
		{Scenario: mk(60, 33, 0.8), Seeds: 2},
	}
	serial := RunSweep(pts, 1)
	parallel := RunSweep(pts, 8)
	for i := range serial {
		if !reflect.DeepEqual(serial[i], parallel[i]) {
			t.Fatalf("point %d diverged:\nserial:   %+v\nparallel: %+v", i, serial[i], parallel[i])
		}
	}
	// The churn process must actually have run.
	if serial[0].ChurnFails == 0 || serial[0].ChurnJoins == 0 {
		t.Fatalf("no churn recorded: %+v", serial[0])
	}
	if serial[0].LossDrops == 0 {
		t.Fatal("no loss drops recorded")
	}
}

// TestRetryAndReadvertiseRecoverFromBurst asserts the recovery mechanisms
// demonstrably work: after a 50% churn burst, the configuration with lookup
// retries and periodic re-advertise must restore a higher hit rate in the
// post-burst buckets than the bare configuration, and the mechanism
// counters must prove which machinery ran.
func TestRetryAndReadvertiseRecoverFromBurst(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical recovery run")
	}
	p := decayProfile()
	p.Seeds = 2
	p.Lookups = 180
	pts := burstPoints(p, p.BigN, 555)
	// Double the burst to ~50% churn so the recovery gap clears noise.
	for i := range pts {
		pts[i].Scenario.ChurnFailRate *= 2
		pts[i].Scenario.ChurnJoinRate *= 2
	}
	results := RunSweep(pts, p.Parallel)
	base, retry, full := results[0], results[1], results[2]

	if base.Counters.LookupRetries != 0 || base.Counters.Readvertises != 0 {
		t.Fatalf("baseline ran recovery machinery: %+v", base.Counters)
	}
	if retry.Counters.LookupRetries == 0 {
		t.Fatal("retry config never retried a lookup")
	}
	if full.Counters.Readvertises == 0 {
		t.Fatal("full config never re-advertised")
	}
	// Compare the post-burst tail (final two buckets, live-origin lookups).
	tail := func(res Result) float64 {
		var tail Tally
		for _, d := range res.Decay[len(res.Decay)-2:] {
			tail.add(d.Tally)
		}
		if tail.Lookups == 0 {
			t.Fatal("empty tail buckets")
		}
		return tail.HitRatio()
	}
	bh, th, fh := tail(base), tail(retry), tail(full)
	if th < bh+0.03 {
		t.Fatalf("retry hit rate %.3f not above baseline %.3f after the burst", th, bh)
	}
	if fh < bh+0.03 {
		t.Fatalf("full-recovery hit rate %.3f not above baseline %.3f after the burst", fh, bh)
	}
}
