package experiment

import (
	"fmt"

	"probquorum/internal/check"
	"probquorum/internal/netstack"
	"probquorum/internal/stack"
)

// The tiers — load, adapt, mega — are the runs outside `pqexp all`. They
// share one contract: a tier takes a TierConfig and returns its tables, the
// lines to print after them (mega's go-bench line, adapt's
// first violations), and an error when the invariant suite it ran under
// recorded anything.

// TierConfig is what the command line hands a tier. Zero values take the
// tier's defaults.
type TierConfig struct {
	// Seed is the base seed all randomness derives from.
	Seed int64
	// Seeds is how many seeds the adapt tier averages per (drift, variant)
	// cell, from Seed upward (default 2). The other tiers run one seed.
	Seeds int
	// N is the mega tier's node count (default 10000); load and adapt fix
	// their own sizes.
	N int
	// Parallel is the worker-pool width across the load tier's mixes and the
	// adapt tier's cells (0 = all cores). Tables are bit-identical at any
	// setting.
	Parallel int
	// Horizon scales a tier down for smoke tests: a fraction in (0,1)
	// multiplies its node counts, workload counts and spans (each tier keeps
	// a floor); anything else is the full run.
	Horizon float64
}

// horizon is the scale factor Horizon stands for.
func (tc TierConfig) horizon() float64 {
	if tc.Horizon <= 0 || tc.Horizon > 1 {
		return 1
	}
	return tc.Horizon
}

// verdict is the tiers' shared gate: an invariant violation or an op leaked
// past the drain in any of the tier's runs is an error, so a smoke target
// fails instead of reporting.
func verdict(tier string, reports ...check.Report) error {
	violations, leaked := 0, 0
	for _, r := range reports {
		violations += r.Violations
		leaked += r.LeakedLookups + r.LeakedAds
	}
	if violations > 0 || leaked > 0 {
		return fmt.Errorf("%s: %d invariant violations, %d leaked ops (see table)", tier, violations, leaked)
	}
	return nil
}

// idealOracleScenario is the stack the load and adapt tiers run on: ideal
// links and oracle routing, so they measure the quorum layer's cost of
// *using* routes (Section 4.1) and not MAC contention or route discovery.
func idealOracleScenario(n int, seed int64) Scenario {
	return Scenario{Spec: stack.Spec{
		N: n, Seed: seed, OracleRouting: true,
		Link: netstack.Config{Stack: netstack.StackIdeal},
	}}
}
