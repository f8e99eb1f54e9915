package quorum

import (
	"math"
	"math/rand"
	"testing"

	"probquorum/internal/membership"
)

// stubSource feeds the controller a scripted estimate sequence: each
// control period consumes the next entry (the last entry repeats).
type stubSource struct {
	seq  []membership.Estimate
	next int
}

func (s *stubSource) AggregateEstimate() membership.Estimate {
	e := s.seq[s.next]
	if s.next < len(s.seq)-1 {
		s.next++
	}
	return e
}

// bandEstimate builds an OK estimate around n with a ±25% confidence band.
func bandEstimate(n float64) membership.Estimate {
	return membership.Estimate{N: n, Lo: 0.75 * n, Hi: 1.25 * n, Pairs: 100, Collisions: 10, OK: true}
}

// adaptWorld builds a controller-equipped world sized for n0 at ε=0.1.
func adaptWorld(seed int64, src *stubSource) (*world, *Controller) {
	qa, ql := OptimalSizes(200, 0.1, 1, 1, 1)
	w := newWorld(seed, 40, Config{
		AdvertiseStrategy: Random, LookupStrategy: Random,
		AdvertiseSize: qa, LookupSize: ql,
		LookupTimeout: 10,
	})
	ctl := NewController(w.sys, src, AdaptConfig{})
	return w, ctl
}

// TestControllerHysteresisNoOscillation is the satellite property: n̂
// jitter that stays inside the confidence band around the applied
// configuration must never trigger a resize, however long it runs.
func TestControllerHysteresisNoOscillation(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		rng := rand.New(rand.NewSource(seed))
		// Jitter the point estimate within ±10% of the sized-for n; with
		// the ±25% band every estimate still covers nApplied ≈ 200.
		seq := make([]membership.Estimate, 40)
		for i := range seq {
			seq[i] = bandEstimate(200 * (0.9 + 0.2*rng.Float64()))
		}
		src := &stubSource{seq: seq}
		w, ctl := adaptWorld(seed, src)

		qa0, ql0 := w.sys.Config().AdvertiseSize, w.sys.Config().LookupSize
		w.e.Run(40 * adaptPeriodSecs)
		st := ctl.Status()
		if st.Resizes != 0 {
			t.Fatalf("seed %d: %d resizes under in-band jitter, want 0", seed, st.Resizes)
		}
		if st.AdvertiseSize != qa0 || st.LookupSize != ql0 {
			t.Fatalf("seed %d: sizes drifted to (%d,%d) from (%d,%d) without a resize",
				seed, st.AdvertiseSize, st.LookupSize, qa0, ql0)
		}
		if st.Skips == 0 {
			t.Fatalf("seed %d: controller never ran a (skipped) period", seed)
		}
	}
}

// TestControllerStepConvergence is the other half of the property: a step
// change in n̂ (3×) converges within the slew-limited bound
// k = ⌈log(size ratio)/log(1+maxStepFrac)⌉ control periods, and the
// trajectory is deterministic per seed.
func TestControllerStepConvergence(t *testing.T) {
	run := func(seed int64) ([]AdaptStatus, membership.Estimate) {
		target := bandEstimate(600)
		src := &stubSource{seq: []membership.Estimate{target}}
		w, ctl := adaptWorld(seed, src)
		// Per-dimension sizes scale with √n, so a 3× step in n is a √3×
		// step per size.
		k := int(math.Ceil(math.Log(math.Sqrt(3))/math.Log(1+maxStepFrac))) + 2
		var trace []AdaptStatus
		for i := 0; i < k+5; i++ {
			w.e.Run(float64(i+1) * adaptPeriodSecs)
			trace = append(trace, ctl.Status())
		}
		st := trace[k-1]
		implied := float64(st.AdvertiseSize) * float64(st.LookupSize) / math.Log(1/0.1)
		if implied < target.Lo || implied > target.Hi {
			t.Fatalf("seed %d: after %d periods implied n = %.0f outside band [%.0f, %.0f]",
				seed, k, implied, target.Lo, target.Hi)
		}
		// Once converged, the unchanged estimate must cause no further
		// resizes.
		if last := trace[len(trace)-1]; last.Resizes != st.Resizes {
			t.Fatalf("seed %d: resizes kept accruing after convergence (%d → %d)",
				seed, st.Resizes, last.Resizes)
		}
		return trace, target
	}

	t1, _ := run(5)
	t2, _ := run(5)
	for i := range t1 {
		if t1[i] != t2[i] {
			t.Fatalf("trajectory not deterministic at period %d: %+v vs %+v", i, t1[i], t2[i])
		}
	}
}
