package quorum

import (
	"fmt"
	"math"
	"testing"

	"probquorum/internal/aodv"
	"probquorum/internal/membership"
	"probquorum/internal/netstack"
	"probquorum/internal/sim"
)

// TestRandomRandomMissWithinLemma52 holds a RANDOM advertise quorum to the
// paper's Lemma 5.2 under each lookup strategy the lemma covers — it is
// mix-and-match: any lookup that accesses |Qℓ| nodes drawn uniformly
// intersects a RANDOM |Qa| with probability ≥ 1 − exp(−|Qa||Qℓ|/n). With
// quorums sized by Corollary 5.3 for ε = 0.01 at n = 600, the measured
// non-intersection rate stays within the bound plus three binomial standard
// deviations of the bound at the sample size, and a lookup whose quorum did
// not intersect never hits. Ideal MAC, oracle router, static nodes, three
// fixed seeds. Recorded: RANDOM 17 of 2 100 miss, UNIQUE-PATH (a walk's
// uniqueness standing in for uniform draws, §4.2) 15 of 2 100, against
// 0.0093 + 3σ 0.0063.
//
// RANDOM-OPT is not a case: its accessed set is the nodes on the routes to
// its ≈ ln n targets, not |Qℓ| uniform draws, and it reads 38 of 2 100
// (0.0181) here — outside the bound, which does not cover it.
func TestRandomRandomMissWithinLemma52(t *testing.T) {
	for _, lk := range []Config{
		{LookupStrategy: Random},
		{LookupStrategy: UniquePath, EarlyHalt: true, Salvation: true, ReplyPathReduction: true},
	} {
		t.Run(lk.LookupStrategy.String(), func(t *testing.T) { missWithinLemma52(t, lk) })
	}
}

// missWithinLemma52 runs one lookup configuration of the test above; lk gives
// the lookup strategy and techniques, the sizes and RANDOM advertise are set
// here.
func missWithinLemma52(t *testing.T, lk Config) {
	const (
		n, epsilon       = 600, 0.01
		keys, perSeedOps = 12, 700
	)
	qa, ql := SizeForEpsilon(n, epsilon, 1)
	lookups, missed := 0, 0
	for _, seed := range []int64{1, 2, 3} {
		e := sim.NewEngine(seed)
		net := netstack.New(e, netstack.Config{N: n, AvgDegree: 12, Stack: netstack.StackIdeal})
		members := membership.New(net, membership.Config{ViewSize: 2 * qa})
		lk.AdvertiseStrategy, lk.AdvertiseSize, lk.LookupSize = Random, qa, ql
		sys := New(net, aodv.NewOracle(net), members, lk)
		rng := e.NewStream()
		key := func(k int) string { return fmt.Sprintf("key%d", k%keys) }
		for k := 0; k < keys; k++ {
			sys.Advertise(net.RandomAliveID(rng), key(k), "v", nil)
		}
		e.Run(5)
		for k := 0; k < keys; k++ {
			holders := 0
			for _, st := range sys.stores {
				if _, ok := st.Get(key(k)); ok {
					holders++
				}
			}
			if holders != qa {
				t.Fatalf("seed %d: %s is held by %d nodes, want |Qa| = %d", seed, key(k), holders, qa)
			}
		}
		settled := 0
		for i := 0; i < perSeedOps; i++ {
			i := i
			e.Schedule(0.02*float64(i), func() {
				sys.Lookup(net.RandomAliveID(rng), key(i), func(res LookupResult) {
					settled++
					if !res.Intersected {
						missed++
						if res.Hit {
							t.Errorf("seed %d lookup %d: hit without intersection", seed, i)
						}
					}
				})
			})
		}
		e.Run(e.Now() + 0.02*perSeedOps + sys.Config().LookupHorizon() + 1)
		if settled != perSeedOps {
			t.Fatalf("seed %d: %d of %d lookups settled", seed, settled, perSeedOps)
		}
		lookups += settled
	}
	bound := NonIntersectProb(n, qa, ql)
	margin := 3 * math.Sqrt(bound*(1-bound)/float64(lookups))
	rate := float64(missed) / float64(lookups)
	t.Logf("|Qa|=%d |Qℓ|=%d: %d of %d lookups did not intersect (%.4f); Lemma 5.2 bound %.4f + 3σ %.4f", qa, ql, missed, lookups, rate, bound, margin)
	if rate > bound+margin {
		t.Errorf("non-intersection rate %.4f exceeds Lemma 5.2's %.4f by more than the 3σ margin %.4f", rate, bound, margin)
	}
}
