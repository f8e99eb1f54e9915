package netstack

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// TestHistBucketMonotone checks the bucketing function is monotone and
// every bucket's bounds actually bracket the samples it receives.
func TestHistBucketMonotone(t *testing.T) {
	prev := -1
	for e := -25; e <= 16; e++ {
		for m := 0; m < 40; m++ {
			v := math.Ldexp(1+float64(m)/40, e)
			i := histIndex(v)
			if i < prev {
				t.Fatalf("histIndex not monotone at v=%g: %d after %d", v, i, prev)
			}
			prev = i
			if i > 0 && i < histNumBuckets-1 {
				if v < histLower(i) || v >= histUpper(i) {
					t.Fatalf("v=%g in bucket %d outside [%g,%g)", v, i, histLower(i), histUpper(i))
				}
			}
		}
	}
	if histIndex(0) != 0 || histIndex(-1) != 0 {
		t.Fatalf("zero/negative samples must underflow")
	}
	if histIndex(1e9) != histNumBuckets-1 {
		t.Fatalf("huge samples must overflow")
	}
}

// TestAccumulatorQuantile checks histogram quantiles land within one
// bucket's relative resolution of the exact order statistics.
func TestAccumulatorQuantile(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var a Accumulator
	samples := make([]float64, 0, 20000)
	for i := 0; i < 20000; i++ {
		// Log-uniform spread over ~6 decades, the shape op latencies take.
		v := math.Exp(rng.Float64()*14 - 9)
		a.Observe(v)
		samples = append(samples, v)
	}
	sort.Float64s(samples)
	for _, q := range []float64{0.1, 0.5, 0.9, 0.99, 0.999} {
		rank := int(math.Ceil(q * float64(len(samples))))
		exact := samples[rank-1]
		got := a.Quantile(q)
		// Upper bucket bound: never below the exact order statistic, and at
		// most one bucket ratio (2^(1/8)) above it.
		if got < exact || got > exact*1.125*1.0001 {
			t.Fatalf("q=%v: got %g, exact %g (ratio %g)", q, got, exact, got/exact)
		}
	}
	if a.Quantile(0) < a.Min {
		t.Fatalf("q=0 below min")
	}
	if a.Quantile(1) > a.Max+1e-12 {
		t.Fatalf("q=1 above max: %g > %g", a.Quantile(1), a.Max)
	}
}

// TestSnapshotCarriesExtremaAndHist is the regression test for the bug
// where Snapshot/DiffSince dropped Accumulator.Min/Max (and, before the
// histogram existed, made interval percentiles impossible): a diff across
// a phase boundary must expose that phase's count, extrema, and
// percentiles, not zeros.
func TestSnapshotCarriesExtremaAndHist(t *testing.T) {
	s := NewStats()

	// Phase 1: fast samples.
	for _, v := range []float64{0.001, 0.002, 0.004} {
		s.Observe(LatHop, v)
	}
	snap := s.Snapshot()
	if got := snap.latencies[LatHop].Min; got != 0.001 {
		t.Fatalf("snapshot min = %g, want 0.001", got)
	}
	if got := snap.latencies[LatHop].Max; got != 0.004 {
		t.Fatalf("snapshot max = %g, want 0.004", got)
	}

	// Phase 2: slow samples, then diff the phase out.
	phase2 := []float64{0.5, 1.0, 2.0, 4.0}
	for _, v := range phase2 {
		s.Observe(LatHop, v)
	}
	d := s.DiffSince(snap)
	if got := d.LatencyCount(LatHop); got != int64(len(phase2)) {
		t.Fatalf("diff count = %d, want %d", got, len(phase2))
	}
	wantMean := (0.5 + 1.0 + 2.0 + 4.0) / 4
	if got := d.LatencyMean(LatHop); math.Abs(got-wantMean) > 1e-12 {
		t.Fatalf("diff mean = %g, want %g", got, wantMean)
	}
	// Interval extrema come from the diffed histogram: within one bucket
	// of the true phase extrema, and nowhere near phase 1's values.
	if lo := d.latencies[LatHop].Min; lo > 0.5 || lo < 0.5/1.125*0.999 {
		t.Fatalf("diff min = %g, want ≈0.5", lo)
	}
	if hi := d.latencies[LatHop].Max; hi < 4.0 || hi > 4.0*1.125*1.001 {
		t.Fatalf("diff max = %g, want ≈4.0", hi)
	}
	// Phase percentiles reflect only phase 2: p50 over {0.5,1,2,4} is the
	// rank-2 sample (1.0), so the reported bucket bound sits in [1, 2^(1/8)).
	p50 := d.LatencyQuantile(LatHop, 0.5)
	if p50 < 1.0 || p50 > 1.0*1.125*1.001 {
		t.Fatalf("diff p50 = %g, want ≈1.0", p50)
	}
	p99 := d.LatencyQuantile(LatHop, 0.99)
	if p99 < 4.0 || p99 > 4.0*1.125*1.001 {
		t.Fatalf("diff p99 = %g, want ≈4.0", p99)
	}

	// A diff from an empty base keeps the exact running extrema.
	full := s.DiffSince(Snapshot{})
	if full.latencies[LatHop].Min != 0.001 || full.latencies[LatHop].Max != 4.0 {
		t.Fatalf("empty-base diff extrema = %g/%g, want exact 0.001/4.0",
			full.latencies[LatHop].Min, full.latencies[LatHop].Max)
	}
}

// TestAccumulatorMerge checks cross-run merging folds counts, extrema, and
// histogram buckets.
func TestAccumulatorMerge(t *testing.T) {
	var a, b Accumulator
	for _, v := range []float64{0.1, 0.2} {
		a.Observe(v)
	}
	for _, v := range []float64{0.05, 0.4} {
		b.Observe(v)
	}
	a.Merge(b)
	if a.Count != 4 {
		t.Fatalf("merged count = %d", a.Count)
	}
	if a.Min != 0.05 || a.Max != 0.4 {
		t.Fatalf("merged extrema = %g/%g", a.Min, a.Max)
	}
	if got := a.Quantile(1); got != 0.4 {
		t.Fatalf("merged q1 = %g", got)
	}
	var empty Accumulator
	empty.Merge(a)
	if empty.Count != 4 || empty.Min != 0.05 {
		t.Fatalf("merge into empty lost state: %+v", empty)
	}
}
