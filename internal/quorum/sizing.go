package quorum

import "math"

// SizeForEpsilon returns quorum sizes satisfying Corollary 5.3: two quorums
// of sizes |Qa| and |Qℓ| with |Qa|·|Qℓ| ≥ n·ln(1/ε) intersect with
// probability at least 1−ε when at least one is chosen uniformly at random.
// Given a ratio ρ = |Qℓ|/|Qa| it returns the minimal integer sizes; a ratio
// ≤ 0 means 1. A NaN epsilon or a non-finite ratio panics: either would
// otherwise size both quorums at 1 and silently lose intersection.
func SizeForEpsilon(n int, epsilon, ratio float64) (advertise, lookup int) {
	if !(epsilon > 0 && epsilon < 1) {
		panic("quorum: epsilon must be in (0,1)")
	}
	if math.IsNaN(ratio) || math.IsInf(ratio, 0) {
		panic("quorum: size ratio must be finite")
	}
	if ratio <= 0 {
		ratio = 1
	}
	product := float64(n) * math.Log(1/epsilon)
	qa := math.Sqrt(product / ratio)
	ql := qa * ratio
	advertise = int(math.Ceil(qa))
	lookup = int(math.Ceil(ql))
	if advertise < 1 {
		advertise = 1
	}
	if lookup < 1 {
		lookup = 1
	}
	return advertise, lookup
}

// NonIntersectProb returns the mix-and-match upper bound on the miss
// probability, exp(−|Qa|·|Qℓ|/n) (Lemma 5.2).
func NonIntersectProb(n, advertiseSize, lookupSize int) float64 {
	return math.Exp(-float64(advertiseSize) * float64(lookupSize) / float64(n))
}

// AdvertiseSizeDefault returns the paper's simulation default |Qa| = 2√n.
func AdvertiseSizeDefault(n int) int {
	return int(math.Round(2 * math.Sqrt(float64(n))))
}

// LookupSizeFor returns the lookup quorum size that, combined with the
// default |Qa| = 2√n advertise quorum, attains the target intersection
// probability. For target 0.9 this is the paper's ≈1.15√n (Section 8.2).
func LookupSizeFor(n int, intersectProb float64) int {
	if !(intersectProb > 0 && intersectProb < 1) {
		panic("quorum: intersection probability must be in (0,1)")
	}
	qa := float64(AdvertiseSizeDefault(n))
	ql := float64(n) * math.Log(1/(1-intersectProb)) / qa
	k := int(math.Ceil(ql))
	if k < 1 {
		k = 1
	}
	return k
}

// OptimalSizeRatio implements Lemma 5.6: the total-cost-minimizing ratio
// |Qℓ|/|Qa| given the lookup:advertise frequency ratio tau and the per-node
// access costs of each side.
func OptimalSizeRatio(tau, costAdvertise, costLookup float64) float64 {
	for _, v := range [...]float64{tau, costAdvertise, costLookup} {
		if !(v > 0 && v < math.Inf(1)) {
			panic("quorum: OptimalSizeRatio arguments must be positive and finite")
		}
	}
	return costAdvertise / (tau * costLookup)
}

// OptimalSizes combines Corollary 5.3 with Lemma 5.6: minimal-cost quorum
// sizes for intersection probability 1−ε under frequency ratio tau.
func OptimalSizes(n int, epsilon, tau, costAdvertise, costLookup float64) (advertise, lookup int) {
	return SizeForEpsilon(n, epsilon, OptimalSizeRatio(tau, costAdvertise, costLookup))
}

// TotalCost evaluates Lemma 5.6's objective: the aggregate message cost of
// `advertises` advertise operations and `lookups` lookup operations with
// the given quorum sizes and per-node costs.
func TotalCost(advertises, lookups int, advertiseSize, lookupSize int, costAdvertise, costLookup float64) float64 {
	return float64(advertises)*float64(advertiseSize)*costAdvertise +
		float64(lookups)*float64(lookupSize)*costLookup
}

// lnCeil returns ⌈ln n⌉, the paper's RANDOM-OPT lookup target count.
func lnCeil(n int) int {
	v := int(math.Ceil(math.Log(float64(n))))
	if v < 1 {
		v = 1
	}
	return v
}
