package experiment

import (
	"reflect"
	"testing"
)

// TestAdaptFigureParallelDeterminism locks in the adapt figure's
// determinism contract: every per-drift result (wall clock aside) is
// bit-identical whether the cells run on one worker or eight — the
// `pqexp adapt` data lines never depend on -parallel.
func TestAdaptFigureParallelDeterminism(t *testing.T) {
	ac := TierConfig{Seeds: 1, Seed: 3, Horizon: 0.05}

	serial := ac
	serial.Parallel = 1
	wide := ac
	wide.Parallel = 8

	a := RunAdapt(serial)
	b := RunAdapt(wide)
	for i := range a {
		a[i].Static.WallSecs, b[i].Static.WallSecs = 0, 0
		a[i].Adaptive.WallSecs, b[i].Adaptive.WallSecs = 0, 0
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("adapt results differ between parallel=1 and parallel=8:\n%+v\nvs\n%+v", a, b)
	}

	// The runs must be healthy: invariants clean (incl. the pending-op
	// drain and the controller's resize-bounds watch), lookups flowing in
	// every cell, and the adaptive variant's controller actually live.
	for _, r := range a {
		for _, v := range []AdaptVariantResult{r.Static, r.Adaptive} {
			if err := verdict(r.Drift+"/"+v.Variant, v.Report); err != nil {
				t.Fatalf("%v: %v", err, v.Report.Details)
			}
			if v.Lookups == 0 {
				t.Fatalf("%s/%s: no lookups issued", r.Drift, v.Variant)
			}
		}
		if r.Static.Resizes != 0 {
			t.Fatalf("%s: static variant recorded %.0f resizes", r.Drift, r.Static.Resizes)
		}
	}
}
