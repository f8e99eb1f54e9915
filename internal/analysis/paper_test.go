package analysis_test

import (
	"strings"
	"testing"

	"probquorum/internal/analysis"
	"probquorum/internal/experiment"
	"probquorum/internal/quorum"
)

// The Section 5 bounds live in package quorum; these tests check the values
// this package's §6.1 curves start from and how its tables render.

func TestMissBound(t *testing.T) {
	// Fig. 16's setting: n=800, |Qa|=56, |Qℓ|=33 → ≈0.9 intersection.
	eps := quorum.NonIntersectProb(800, 56, 33)
	if p := 1 - eps; p < 0.89 || p > 0.95 {
		t.Fatalf("intersection bound = %v, want ≈0.9", p)
	}
	// Larger quorums → smaller miss.
	if quorum.NonIntersectProb(800, 60, 40) >= eps {
		t.Fatal("miss bound not monotone")
	}
	// The §6.1 degradation curves start from Lemma 5.2's 1−ε.
	if got := analysis.DegradationChurn(eps, 0); got != 1-eps {
		t.Fatalf("DegradationChurn(ε, 0) = %v, want 1−ε = %v", got, 1-eps)
	}
}

func TestRequiredProduct(t *testing.T) {
	// Section 5.2: 1−ε = 0.9 → product ≥ 2.3n.
	qa, ql := quorum.SizeForEpsilon(1000, 0.1, 1)
	if got := float64(qa * ql); got < 2.3*1000 || got > 2.4*1000 {
		t.Fatalf("|Qa|·|Qℓ| = %v, want ≈2303", got)
	}
	if eps := quorum.NonIntersectProb(1000, qa, ql); eps > 0.1 {
		t.Fatalf("sized quorums miss with %v > ε = 0.1", eps)
	}
}

func TestFormatTable(t *testing.T) {
	// Figs. 3 and 6 render one line per row of StrategyTable and MixTable,
	// each under a title and a header line.
	fig3 := strings.Split(strings.TrimRight(experiment.Fig3().String(), "\n"), "\n")
	st := analysis.StrategyTable()
	if len(fig3) != 2+len(st) {
		t.Fatalf("Fig. 3 has %d lines, want %d", len(fig3), 2+len(st))
	}
	for i, s := range st {
		if line := fig3[2+i]; !strings.HasPrefix(line, s.Name+" ") || !strings.Contains(line, s.CostRGG) {
			t.Fatalf("Fig. 3 row %d = %q, want %s with %s", i, line, s.Name, s.CostRGG)
		}
	}
	fig6 := strings.Split(strings.TrimRight(experiment.Fig6().String(), "\n"), "\n")
	mt := analysis.MixTable()
	if len(fig6) != 2+len(mt) {
		t.Fatalf("Fig. 6 has %d lines, want %d", len(fig6), 2+len(mt))
	}
	for i, m := range mt {
		if line := fig6[2+i]; !strings.HasPrefix(line, m.Advertise+" ") || !strings.Contains(line, m.LookupCost) {
			t.Fatalf("Fig. 6 row %d = %q, want %s with %s", i, line, m.Advertise, m.LookupCost)
		}
	}
}
