package quorum

import (
	"math"
	"testing"
)

func TestSizeForEpsilonSatisfiesBound(t *testing.T) {
	for _, n := range []int{50, 100, 800, 10000} {
		for _, eps := range []float64{0.01, 0.05, 0.1, 0.3} {
			for _, ratio := range []float64{0.25, 0.5, 1, 2, 4} {
				qa, ql := SizeForEpsilon(n, eps, ratio)
				if float64(qa*ql) < float64(n)*math.Log(1/eps)-1e-9 {
					t.Fatalf("n=%d eps=%v ratio=%v: product %d below bound", n, eps, ratio, qa*ql)
				}
				if NonIntersectProb(n, qa, ql) > eps {
					t.Fatalf("n=%d eps=%v: bound violated", n, eps)
				}
			}
		}
	}
}

func TestSizeForEpsilonPaperExample(t *testing.T) {
	// Section 5.2: for 1−ε = 0.9, |Qa|·|Qℓ| ≥ 2.3n, both Θ(√n).
	qa, ql := SizeForEpsilon(800, 0.1, 1)
	product := float64(qa * ql)
	if product < 2.3*800 || product > 2.6*800 {
		t.Fatalf("product = %v, want ≈2.3·800", product)
	}
	if qa != ql {
		t.Fatalf("ratio 1 should give equal sizes, got %d, %d", qa, ql)
	}
}

func TestLookupSizeForMatchesPaper(t *testing.T) {
	// Section 8.2: with |Qa| = 2√n, hit ratio 0.9 needs |Qℓ| ≈ 1.15√n.
	for _, n := range []int{50, 100, 200, 400, 800} {
		ql := LookupSizeFor(n, 0.9)
		want := 1.15 * math.Sqrt(float64(n))
		if math.Abs(float64(ql)-want) > 2 {
			t.Fatalf("n=%d: LookupSizeFor = %d, want ≈%.1f", n, ql, want)
		}
	}
	// Fig. 16: n=800 → |Qa| = 56, |Qℓ| = 33.
	if got := AdvertiseSizeDefault(800); got != 57 && got != 56 {
		t.Fatalf("AdvertiseSizeDefault(800) = %d, want ≈56", got)
	}
	if got := LookupSizeFor(800, 0.9); got != 33 {
		t.Fatalf("LookupSizeFor(800, 0.9) = %d, want 33", got)
	}
}

func TestNonIntersectProbMonotone(t *testing.T) {
	// Fig. 16's setting: n=800, |Qa|=56, |Qℓ|=33 → ≈0.9 intersection.
	if p := 1 - NonIntersectProb(800, 56, 33); p < 0.89 || p > 0.95 {
		t.Fatalf("intersection bound = %v, want ≈0.9", p)
	}
	prev := 1.0
	for q := 1; q <= 60; q += 5 {
		p := NonIntersectProb(800, q, 33)
		if p >= prev {
			t.Fatalf("miss probability not decreasing at q=%d", q)
		}
		prev = p
	}
}

func TestOptimalSizeRatioPaperExample(t *testing.T) {
	// Section 5.4: τ=10, Cost_a = D = 5, Cost_ℓ ≈ 1 → |Qℓ|/|Qa| = 1/2.
	ratio := OptimalSizeRatio(10, 5, 1)
	if math.Abs(ratio-0.5) > 1e-12 {
		t.Fatalf("ratio = %v, want 0.5", ratio)
	}
}

func TestOptimalSizesMinimizeCost(t *testing.T) {
	// The optimal ratio should (weakly) beat nearby ratios on total cost.
	n, eps, tau := 800, 0.1, 10.0
	costA, costL := 5.0, 1.0
	qa, ql := OptimalSizes(n, eps, tau, costA, costL)
	advertises, lookups := 100, 1000
	best := TotalCost(advertises, lookups, qa, ql, costA, costL)
	for _, ratio := range []float64{0.1, 0.25, 1, 2, 5} {
		qa2, ql2 := SizeForEpsilon(n, eps, ratio)
		c := TotalCost(advertises, lookups, qa2, ql2, costA, costL)
		if c < best-1 { // integer rounding slack
			t.Fatalf("ratio %v gives cost %v < optimal %v", ratio, c, best)
		}
	}
}

func TestTotalCost(t *testing.T) {
	got := TotalCost(100, 1000, 56, 33, 10, 1)
	want := 100*56*10.0 + 1000*33*1.0
	if got != want {
		t.Fatalf("TotalCost = %v, want %v", got, want)
	}
}

func TestSizingPanics(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, c := range []struct {
		name string
		f    func()
	}{
		{"SizeForEpsilon eps=0", func() { SizeForEpsilon(100, 0, 1) }},
		{"SizeForEpsilon eps=1", func() { SizeForEpsilon(100, 1, 1) }},
		{"SizeForEpsilon eps=NaN", func() { SizeForEpsilon(800, nan, 1) }},
		{"SizeForEpsilon ratio=NaN", func() { SizeForEpsilon(800, 0.05, nan) }},
		{"SizeForEpsilon ratio=+Inf", func() { SizeForEpsilon(800, 0.05, inf) }},
		{"SizeForEpsilon ratio=-Inf", func() { SizeForEpsilon(800, 0.05, -inf) }},
		{"LookupSizeFor p=0", func() { LookupSizeFor(100, 0) }},
		{"LookupSizeFor p=NaN", func() { LookupSizeFor(800, nan) }},
		{"OptimalSizeRatio tau=0", func() { OptimalSizeRatio(0, 1, 1) }},
		{"OptimalSizeRatio tau=NaN", func() { OptimalSizeRatio(nan, 1, 1) }},
		{"OptimalSizeRatio tau=+Inf", func() { OptimalSizeRatio(inf, 1, 1) }},
		{"OptimalSizeRatio costA=NaN", func() { OptimalSizeRatio(1, nan, 1) }},
		{"OptimalSizeRatio costA=+Inf", func() { OptimalSizeRatio(1, inf, 1) }},
		{"OptimalSizeRatio costL=NaN", func() { OptimalSizeRatio(1, 1, nan) }},
		{"OptimalSizeRatio costL=+Inf", func() { OptimalSizeRatio(1, 1, inf) }},
		{"OptimalSizes tau=NaN", func() { OptimalSizes(800, 0.05, nan, 1, 1) }},
	} {
		t.Run(c.name, func(t *testing.T) { mustPanic(t, c.f) })
	}
}

func mustPanic(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	f()
}

func TestStrategyString(t *testing.T) {
	cases := map[Strategy]string{
		Random: "RANDOM", RandomOpt: "RANDOM-OPT", Path: "PATH",
		UniquePath: "UNIQUE-PATH", Flooding: "FLOODING", Strategy(99): "Strategy(99)",
	}
	for s, want := range cases {
		if s.String() != want {
			t.Fatalf("%d.String() = %q", s, s.String())
		}
	}
}
