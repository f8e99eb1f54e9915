package experiment

import (
	"reflect"
	"testing"

	"probquorum/internal/faults"
)

// chaosRuns runs each scenario on a pool of parallel workers, in index order.
func chaosRuns(scs []ChaosScenario, parallel int) []ChaosResult {
	return runJobs(len(scs), parallel, func(i int) ChaosResult { return RunChaos(scs[i]) })
}

// TestChaosSmoke is the deterministic chaos gate: fixed seeds, checkers
// armed, zero invariant violations required, and the post-heal phase must
// sit at (or above) the designed 1−ε bound in aggregate.
func TestChaosSmoke(t *testing.T) {
	scs := []ChaosScenario{
		{N: 50, Seed: 11, Severity: 0.5},
		{N: 50, Seed: 22, Severity: 1.0},
		{N: 50, Seed: 33, Severity: 0.8, LookupRetries: 2, RetryBackoffSecs: 0.5},
	}
	results := chaosRuns(scs, 0)
	agg := mergeChaos(results)
	if agg.Report.Violations != 0 {
		t.Fatalf("invariant violations under chaos: %v", agg.Report.Details)
	}
	if agg.Report.Outstanding != 0 {
		t.Fatalf("%d operations never resolved", agg.Report.Outstanding)
	}
	if agg.Post.Lookups == 0 || agg.Pre.Lookups == 0 {
		t.Fatal("phases issued no lookups")
	}
	// Post-heal must be back in the guaranteed regime. The margin below
	// the analytic 1−ε=0.9 covers small-sample noise in 36 lookups.
	if r := agg.Post.IntersectRatio(); r < 0.85 {
		t.Fatalf("post-heal intersection %.2f, want ≥ 0.85 (bound 0.90)", r)
	}
}

// TestChaosFiftySchedules is the acceptance sweep: ≥50 independent
// randomized fault schedules, each with its own checker suite, all
// violation-free, with the aggregate post-heal intersection at the bound.
func TestChaosFiftySchedules(t *testing.T) {
	if testing.Short() {
		t.Skip("50-schedule sweep skipped in -short mode; run via make chaos")
	}
	const schedules = 52
	scs := make([]ChaosScenario, schedules)
	for i := range scs {
		scs[i] = ChaosScenario{
			N: 50, Seed: 1000 + int64(i)*17,
			Severity: float64(i%5) * 0.25,
		}
	}
	results := chaosRuns(scs, 0)
	agg := mergeChaos(results)
	if agg.Runs != schedules {
		t.Fatalf("ran %d schedules, want %d", agg.Runs, schedules)
	}
	if agg.Report.Violations != 0 {
		t.Fatalf("invariant violations across %d schedules: %v", schedules, agg.Report.Details)
	}
	if r := agg.Post.IntersectRatio(); r < 1-0.1 {
		t.Fatalf("aggregate post-heal intersection %.3f below the 1−ε bound 0.90", r)
	}
	t.Logf("%d schedules: pre %.3f, during %.3f, post %.3f, %d stale / %d missed of %d reads",
		schedules, agg.Pre.IntersectRatio(), agg.During.IntersectRatio(), agg.Post.IntersectRatio(),
		agg.Report.StaleReads, agg.Report.MissedReads, agg.Report.Reads)
}

// TestChaosParallelDeterminism extends the sweep-determinism guarantee to
// chaos runs: the same scenarios produce bit-identical results (fault
// schedules included) on any worker-pool size.
func TestChaosParallelDeterminism(t *testing.T) {
	mk := func() []ChaosScenario {
		return []ChaosScenario{
			{N: 40, Seed: 5, Severity: 0.3},
			{N: 40, Seed: 6, Severity: 0.9},
			{N: 40, Seed: 7, Severity: 0.6, LookupRetries: 1, RetryBackoffSecs: 0.5},
			{N: 40, Seed: 8, Severity: 1.0, ReadvertiseSecs: 10},
		}
	}
	serial := chaosRuns(mk(), 1)
	parallel := chaosRuns(mk(), 4)
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatal("chaos sweep results differ between serial and parallel execution")
	}
}

// TestChaosExplicitPartitionDegradesAndRecovers pins the qualitative shape
// the harness exists to show: under a long geometric partition the
// during-phase intersection drops below the fault-free pre phase, and the
// post-heal phase recovers.
func TestChaosExplicitPartitionDegradesAndRecovers(t *testing.T) {
	agg := ChaosResult{}
	for seed := int64(0); seed < 4; seed++ {
		cs := ChaosScenario{N: 50, Seed: 100 + seed*7}
		cs.Schedule = []faults.Episode{{
			Kind: faults.Partition, Start: 2,
			Duration: chaosFaultSpanSecs - 6, Parts: 2,
		}}
		agg = mergeChaos([]ChaosResult{agg, RunChaos(cs)})
	}
	if agg.Report.Violations != 0 {
		t.Fatalf("violations under explicit partition: %v", agg.Report.Details)
	}
	if agg.PartitionDrops == 0 {
		t.Fatal("partition dropped no frames; the schedule never took effect")
	}
	if post, during := agg.Post.IntersectRatio(), agg.During.IntersectRatio(); post < during {
		t.Fatalf("post-heal intersection %.3f below during-partition %.3f; healing had no effect", post, during)
	}
	if r := agg.Post.IntersectRatio(); r < 0.85 {
		t.Fatalf("post-heal intersection %.3f did not recover toward the 0.90 bound", r)
	}
}
