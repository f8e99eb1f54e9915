// Package analysis holds the paper's closed forms that a figure, the
// adaptive controller or the location service reads: the §6.1 churn
// degradation curves (Figs. 7 and 14(f), the decay figure), the refresh
// tolerance and readvertise period inverted from them (locservice, the
// controller), Theorem 5.5's crossing time at the connectivity threshold
// (the crossing-time figure), and the comparison tables of Figs. 3 and 6.
// The Section 5 bounds (Lemma 5.2, Cor. 5.3, Lemma 5.6) live with the
// quorum sizing in package quorum.
package analysis

import "math"

// Degradation curves (Section 6.1). All take the initial non-intersection
// probability ε and the churn fraction f, and return the degraded
// intersection probability 1−Pr(miss(t)).

// DegradationFailuresFixed: failures only, lookup quorum size kept constant
// — the intersection probability does not change at all: 1−ε.
func DegradationFailuresFixed(epsilon, f float64) float64 {
	_ = f // remarkably, independent of the failure fraction
	return 1 - epsilon
}

// DegradationFailuresAdjusted: failures only, lookup quorum size adjusted
// to C√n(t): Pr(miss) ≤ ε^√(1−f).
func DegradationFailuresAdjusted(epsilon, f float64) float64 {
	return 1 - math.Pow(epsilon, math.Sqrt(1-f))
}

// DegradationJoinsFixed: joins only, lookup quorum size kept constant:
// Pr(miss) ≤ ε^(1/(1+f)).
func DegradationJoinsFixed(epsilon, f float64) float64 {
	return 1 - math.Pow(epsilon, 1/(1+f))
}

// DegradationChurn: equal joins and failures (n constant): Pr(miss) ≤
// ε^(1−f).
func DegradationChurn(epsilon, f float64) float64 {
	return 1 - math.Pow(epsilon, 1-f)
}

// RefreshIntervalFor returns how much churn fraction f the system tolerates
// before the intersection probability (under DegradationChurn) falls below
// minProb — i.e. when a refresh (readvertise) is due (Section 6.1's
// "handling quorum degradation" example).
func RefreshIntervalFor(epsilon, minProb float64) float64 {
	// Solve 1 − ε^(1−f) = minProb for f.
	f := 1 - math.Log(1-minProb)/math.Log(epsilon)
	if f < 0 {
		return 0
	}
	if f > 1 {
		return 1
	}
	return f
}

// ReadvertiseInterval inverts the §6.1 decay bound into a refresh period —
// the Timed-Quorum-style validity window after which advertisements must be
// re-established. With churn replacing nodes at failRate per second in an
// n-node network, the churned fraction reaches the tolerance f* =
// RefreshIntervalFor(epsilon, minProb) after f*·n/failRate seconds. A
// non-positive rate (no observed churn) returns +Inf: refresh is never due.
func ReadvertiseInterval(epsilon, minProb, n, failRate float64) float64 {
	if failRate <= 0 || n <= 0 {
		return math.Inf(1)
	}
	return RefreshIntervalFor(epsilon, minProb) * n / failRate
}

// CrossingTimeAtThreshold is Theorem 5.5's lower bound on the expected
// steps before two simple random walks on G²(n,r) cross, Ω(r⁻²), evaluated
// at the minimal connectivity radius r = Θ(√(log n / n)): n/log n up to
// constants.
func CrossingTimeAtThreshold(n int) float64 {
	return float64(n) / math.Log(float64(n))
}

// StrategyTraits summarizes Fig. 3's qualitative rows for one strategy.
type StrategyTraits struct {
	Name            string
	AccessedNodes   string // "random uniform" or "arbitrary"
	CostGeneral     string // cost on general networks
	CostRGG         string // cost on random geometric graphs
	NeedsRouting    bool
	NeedsMembership bool
	LookupReplies   string
	EarlyHalting    bool
}

// StrategyTable returns Fig. 3: the asymptotic and qualitative comparison
// of the access strategies.
func StrategyTable() []StrategyTraits {
	return []StrategyTraits{
		{
			Name: "RANDOM (membership)", AccessedNodes: "random uniform",
			CostGeneral: "|Q|·Diameter", CostRGG: "|Q|·sqrt(n/ln n)",
			NeedsRouting: true, NeedsMembership: true,
			LookupReplies: "multiple", EarlyHalting: false,
		},
		{
			Name: "RANDOM (sampling)", AccessedNodes: "random uniform",
			CostGeneral: "|Q|·T_mix", CostRGG: "|Q|·n",
			NeedsRouting: false, NeedsMembership: false,
			LookupReplies: "multiple", EarlyHalting: false,
		},
		{
			Name: "PATH", AccessedNodes: "arbitrary",
			CostGeneral: "PCT(|Q|)", CostRGG: "|Q|, for |Q|=o(n)",
			NeedsRouting: false, NeedsMembership: false,
			LookupReplies: "one", EarlyHalting: true,
		},
		{
			Name: "FLOODING", AccessedNodes: "arbitrary",
			CostGeneral: "Θ(|Q|)", CostRGG: "|Q|",
			NeedsRouting: false, NeedsMembership: false,
			LookupReplies: "multiple", EarlyHalting: false,
		},
	}
}

// MixCost summarizes Fig. 6: asymptotic costs of a strategy combination at
// |Q| = Θ(√n) on RGGs.
type MixCost struct {
	Advertise, Lookup   string
	AdvertiseCost       string
	LookupCost          string
	TopologyIndependent bool // intersection guarantee independent of topology
}

// MixTable returns Fig. 6's comparison of strategy combinations.
func MixTable() []MixCost {
	return []MixCost{
		{"RANDOM", "RANDOM", "n/sqrt(ln n)", "n/sqrt(ln n)", true},
		{"RANDOM", "RANDOM-OPT", "n/sqrt(ln n)", "sqrt(n·ln n)", true},
		{"RANDOM", "PATH", "n/sqrt(ln n)", "sqrt(n)", true},
		{"RANDOM", "FLOODING", "n/sqrt(ln n)", "sqrt(n)", true},
		{"PATH", "PATH", "combined ≥ n/ln n (crossing time)", "n/ln n", false},
		{"FLOODING", "FLOODING", "combined linear in n", "linear", false},
		{"UNIQUE-PATH", "UNIQUE-PATH", "≈ n/2 combined (simulation)", "≈ n/4.7", false},
	}
}
