package analysis

import (
	"math"
	"strings"
	"testing"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestDegradationCurves(t *testing.T) {
	eps := 0.05 // start at 0.95 intersection

	// Failures with fixed lookup size: no degradation at all (the
	// paper's "remarkable resilience" result).
	for _, f := range []float64{0, 0.3, 0.7} {
		if got := DegradationFailuresFixed(eps, f); got != 0.95 {
			t.Fatalf("failures-fixed at f=%v: %v, want 0.95", f, got)
		}
	}

	// Section 6.1 / Fig. 7(c) example: starting at 0.95, after 30% churn
	// the intersection is "only slightly below 0.9".
	got := DegradationChurn(eps, 0.3)
	if got < 0.85 || got > 0.91 {
		t.Fatalf("churn at f=0.3: %v, want ≈0.88–0.9", got)
	}

	// Fig. 14(f)'s shape: 0.95 initial degrades to ≈0.87 at 50% churn.
	got = DegradationChurn(eps, 0.5)
	if got < 0.75 || got > 0.88 {
		t.Fatalf("churn at f=0.5: %v, want ≈0.78–0.87", got)
	}

	// All curves start at 1−ε at f=0.
	for _, fn := range []func(float64, float64) float64{
		DegradationFailuresFixed, DegradationFailuresAdjusted,
		DegradationJoinsFixed, DegradationChurn,
	} {
		if got := fn(eps, 0); !almost(got, 0.95, 1e-12) {
			t.Fatalf("curve does not start at 1−ε: %v", got)
		}
	}

	// Monotone non-increasing in f.
	for _, fn := range []func(float64, float64) float64{
		DegradationFailuresAdjusted, DegradationJoinsFixed, DegradationChurn,
	} {
		prev := 1.0
		for f := 0.0; f <= 0.9; f += 0.1 {
			v := fn(eps, f)
			if v > prev+1e-12 {
				t.Fatalf("degradation increased at f=%v", f)
			}
			prev = v
		}
	}
}

func TestRefreshIntervalFor(t *testing.T) {
	// Section 6.1 example: ε=0.05, refresh when intersection < 0.9 —
	// tolerated churn ≈ 30%.
	f := RefreshIntervalFor(0.05, 0.9)
	if f < 0.2 || f > 0.35 {
		t.Fatalf("tolerated churn = %v, want ≈0.3", f)
	}
	if RefreshIntervalFor(0.05, 0.94) <= 0 {
		t.Fatal("should tolerate some churn above the floor")
	}
	// A floor at the initial probability demands immediate refresh.
	if got := RefreshIntervalFor(0.05, 0.95); got > 1e-9 {
		t.Fatalf("RefreshIntervalFor at the start level = %v, want 0", got)
	}
	// Lower floors tolerate more churn, monotonically.
	if RefreshIntervalFor(0.05, 0.5) <= RefreshIntervalFor(0.05, 0.9) {
		t.Fatal("lower floor should tolerate more churn")
	}
}

func TestCrossingTime(t *testing.T) {
	// At threshold: n/log n, which for n=800 ≈ 120.
	if got := CrossingTimeAtThreshold(800); got < 100 || got > 140 {
		t.Fatalf("CrossingTimeAtThreshold(800) = %v", got)
	}
}

func TestTables(t *testing.T) {
	st := StrategyTable()
	if len(st) != 4 {
		t.Fatalf("StrategyTable has %d rows", len(st))
	}
	// PATH is the only early-halting strategy (Fig. 3).
	for _, row := range st {
		if row.EarlyHalting != (row.Name == "PATH") {
			t.Fatalf("early-halting wrong for %s", row.Name)
		}
	}
	mt := MixTable()
	if len(mt) < 6 {
		t.Fatalf("MixTable has %d rows", len(mt))
	}
	// Combinations including RANDOM are topology independent (Lemma 5.2).
	for _, row := range mt {
		wantIndep := row.Advertise == "RANDOM" || row.Lookup == "RANDOM"
		if strings.HasPrefix(row.Lookup, "RANDOM") {
			wantIndep = true
		}
		if row.TopologyIndependent != wantIndep {
			t.Fatalf("topology independence wrong for %s×%s", row.Advertise, row.Lookup)
		}
	}
}
