package experiment

import (
	"reflect"
	"testing"
)

// TestLoadFigureParallelDeterminism locks in the load figure's determinism
// contract: the data table and every per-mix result are bit-identical
// whether the mixes run on one worker or eight — the `pqexp load` data
// lines never depend on -parallel.
func TestLoadFigureParallelDeterminism(t *testing.T) {
	lc := TierConfig{Seed: 5, Horizon: 0.08}

	serial := lc
	serial.Parallel = 1
	wide := lc
	wide.Parallel = 8

	a := RunLoad(serial)
	b := RunLoad(wide)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("load results differ between parallel=1 and parallel=8:\n%+v\nvs\n%+v", a, b)
	}
	ta, tb := LoadTable(serial, a).String(), LoadTable(wide, b).String()
	if ta != tb {
		t.Fatalf("load data lines differ:\n%s\nvs\n%s", ta, tb)
	}

	// The run itself must be healthy: invariants clean (incl. the
	// pending-op drain assertion), every admitted op completed, and the
	// seeded key table actually serving reads.
	for _, r := range a {
		if r.Report.Violations != 0 {
			t.Fatalf("mix %q: %d invariant violations: %+v", r.Mix, r.Report.Violations, r.Report.Details)
		}
		if r.WL.Completed != r.WL.Issued {
			t.Fatalf("mix %q: completed %d != issued %d after drain", r.Mix, r.WL.Completed, r.WL.Issued)
		}
		if r.WL.Issued == 0 || r.HitRatio < 0.5 {
			t.Fatalf("mix %q: implausible load outcome: %+v hit=%.2f", r.Mix, r.WL, r.HitRatio)
		}
	}
}
