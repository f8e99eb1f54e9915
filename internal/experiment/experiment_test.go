package experiment

import (
	"strings"
	"testing"

	"probquorum/internal/netstack"
	"probquorum/internal/quorum"
	"probquorum/internal/stack"
)

// testScenario is a RANDOM × UNIQUE-PATH run of the two-phase workload at the
// paper's default sizes.
func testScenario(kind netstack.StackKind, n int, seed int64, ads, lookups, lookupNodes int) Scenario {
	return Scenario{
		Spec: stack.Spec{
			N: n, Seed: seed, Link: netstack.Config{Stack: kind},
			Quorum: mixConfig(n, quorum.Random, quorum.UniquePath),
		},
		Advertisements: ads, Lookups: lookups, LookupNodes: lookupNodes,
	}
}

func quickScenario(seed int64) Scenario {
	return testScenario(netstack.StackIdeal, 80, seed, 10, 60, 5)
}

func TestRunBasicMetrics(t *testing.T) {
	r := Run(quickScenario(1))
	if r.HitRatio < 0.6 || r.HitRatio > 1 {
		t.Fatalf("hit ratio %v out of range", r.HitRatio)
	}
	if r.IntersectRatio < r.HitRatio {
		t.Fatalf("intersection ratio %v below hit ratio %v", r.IntersectRatio, r.HitRatio)
	}
	if r.LookupAppMsgs <= 0 || r.AdvertiseAppMsgs <= 0 {
		t.Fatalf("message costs not measured: %+v", r)
	}
	if r.AdvertiseRoutingMsgs <= 0 {
		t.Fatal("RANDOM advertise should incur routing overhead")
	}
	if r.LookupRoutingMsgs != 0 {
		t.Fatalf("UNIQUE-PATH lookup should not use routing, got %v", r.LookupRoutingMsgs)
	}
	if r.AvgPlaced <= 0 || r.AvgPlaced > float64(quorum.AdvertiseSizeDefault(80)) {
		t.Fatalf("AvgPlaced = %v", r.AvgPlaced)
	}
	if r.Runs != 1 {
		t.Fatalf("Runs = %d", r.Runs)
	}
}

func TestRunDeterministic(t *testing.T) {
	a := Run(quickScenario(7))
	b := Run(quickScenario(7))
	if a.HitRatio != b.HitRatio || a.LookupAppMsgs != b.LookupAppMsgs {
		t.Fatalf("same seed diverged: %+v vs %+v", a, b)
	}
}

func TestRunSeedsAverages(t *testing.T) {
	r := RunSeeds(quickScenario(1), 3)
	if r.Runs != 3 {
		t.Fatalf("Runs = %d, want 3", r.Runs)
	}
	if r.HitRatio <= 0 || r.HitRatio > 1 {
		t.Fatalf("averaged hit ratio %v", r.HitRatio)
	}
}

func TestChurnScenario(t *testing.T) {
	sc := quickScenario(3)
	sc.N = 100
	sc.Link.AvgDegree = 15
	sc.Quorum = mixConfig(100, quorum.Random, quorum.UniquePath)
	sc.FailFraction, sc.JoinFraction = 0.3, 0.3
	sc.AdjustLookupSize = true
	r := Run(sc)
	// With 30% churn the intersection should degrade but stay usable
	// (Section 6.1 predicts ≈ ε^0.7 miss — still ≥ 0.7 hit for ε=0.1).
	if r.HitRatio < 0.5 {
		t.Fatalf("hit ratio %v under 30%% churn, want ≥ 0.5", r.HitRatio)
	}
}

func TestFloodCoverageMeasurement(t *testing.T) {
	p := Quick()
	p.Seeds = 1
	cov := FloodCoverageOnce(p, 100, 10, []int{1, 2, 3}, 5)
	if !(cov[0] < cov[1] && cov[1] < cov[2]) {
		t.Fatalf("coverage not increasing with TTL: %v", cov)
	}
	if cov[0] < 2 {
		t.Fatalf("TTL-1 coverage %v: should reach at least the neighborhood", cov[0])
	}
}

func TestAnalyticFigures(t *testing.T) {
	if len(Fig3().Rows) != 4 {
		t.Fatal("Fig3 shape")
	}
	if len(Fig6().Rows) < 6 {
		t.Fatal("Fig6 shape")
	}
	tables := Fig7()
	if len(tables) != 4 {
		t.Fatal("Fig7 shape")
	}
	for _, tb := range tables {
		if len(tb.Rows) != 10 {
			t.Fatalf("Fig7 table %q has %d rows", tb.Title, len(tb.Rows))
		}
	}
}

func TestTableString(t *testing.T) {
	tb := Table{Title: "T", Header: []string{"a", "b"}, Rows: [][]string{{"1", "2"}}}
	s := tb.String()
	if !strings.Contains(s, "## T") || !strings.Contains(s, "1") {
		t.Fatalf("Table.String() = %q", s)
	}
	// Columns pad to their widest cell, header or row.
	tb = Table{Title: "T", Header: []string{"a", "bb"}, Rows: [][]string{{"xxx", "y"}}}
	if got, want := tb.String(), "## T\na    bb  \nxxx  y   \n"; got != want {
		t.Fatalf("Table.String() = %q, want %q", got, want)
	}
}

func TestProfiles(t *testing.T) {
	q, f := Quick(), Full()
	if q.Stack != netstack.StackIdeal || f.Stack != netstack.StackSINR {
		t.Fatal("profile stacks wrong")
	}
	if f.BigN != 800 || f.Seeds != 10 || f.Lookups != 1000 {
		t.Fatalf("full profile does not match the paper: %+v", f)
	}
	if len(f.Sizes) != 5 {
		t.Fatal("full profile sizes should be the paper's five")
	}
}

func TestAdjustedLookupSize(t *testing.T) {
	if got := adjustedLookupSize(12, 100, 100); got != 12 {
		t.Fatalf("no-churn adjustment changed size: %d", got)
	}
	if got := adjustedLookupSize(12, 100, 49); got != 8 { // 12·0.7
		t.Fatalf("adjustment to half-size network: %d, want 8", got)
	}
	if got := adjustedLookupSize(12, 100, 400); got != 24 {
		t.Fatalf("adjustment to 4x network: %d, want 24", got)
	}
	if got := adjustedLookupSize(0, 100, 50); got != 0 {
		t.Fatalf("zero base should stay zero: %d", got)
	}
}

func TestMixConfigSizes(t *testing.T) {
	c := mixConfig(800, quorum.Random, quorum.UniquePath)
	if c.AdvertiseSize != quorum.AdvertiseSizeDefault(800) {
		t.Fatal("advertise size")
	}
	if c.LookupSize != 33 {
		t.Fatalf("lookup size %d, want 33 (1.15√800)", c.LookupSize)
	}
	if !c.EarlyHalt || !c.Salvation || !c.ReplyPathReduction {
		t.Fatal("techniques should default on")
	}
}

func TestSINRStackScenario(t *testing.T) {
	if testing.Short() {
		t.Skip("full-fidelity run")
	}
	sc := testScenario(netstack.StackSINR, 60, 2, 5, 25, 5)
	r := Run(sc)
	if r.HitRatio < 0.5 {
		t.Fatalf("SINR-stack hit ratio %v", r.HitRatio)
	}
	if r.AdvertiseRoutingMsgs <= r.AdvertiseAppMsgs {
		t.Fatal("routing overhead should dominate RANDOM advertise on the real stack")
	}
}

func TestMobileScenario(t *testing.T) {
	sc := quickScenario(9)
	sc.SpeedMax = 2
	r := Run(sc)
	if r.HitRatio < 0.5 {
		t.Fatalf("mobile hit ratio %v", r.HitRatio)
	}
}

// microProfile keeps figure generators fast enough for unit tests.
func microProfile() Profile {
	return Profile{
		Sizes:     []int{40, 60},
		Densities: []float64{10, 15},
		Seeds:     1, Stack: netstack.StackIdeal,
		Advertisements: 6, Lookups: 24, LookupNodes: 4,
		BigN: 60, WalkTrials: 15,
	}
}

// TestAllFigureGenerators runs every simulation-backed figure at micro
// scale: each must produce non-empty, well-formed tables.
func TestAllFigureGenerators(t *testing.T) {
	p := microProfile()
	gens := map[string]func() []Table{
		"fig4":  func() []Table { return Fig4(p, 1) },
		"fig5":  func() []Table { return Fig5(p, 1) },
		"fig8":  func() []Table { return Fig8(p, 1) },
		"fig9":  func() []Table { return Fig9(p, 1) },
		"fig10": func() []Table { return Fig10(p, 1) },
		"fig11": func() []Table { return Fig11(p, 1) },
		"fig12": func() []Table { return Fig12(p, 1) },
		"fig13": func() []Table { return Fig13(p, 1) },
		"fig14": func() []Table { return Fig14(p, 1) },
		"fig15": func() []Table { return Fig15(p, 1) },
		"fig16": func() []Table { return Fig16(p, 1) },
		"tau":   func() []Table { return TauSweep(p, 1) },
		"f4s":   func() []Table { return Fig4Series(p, 1) },
		"crt":   func() []Table { return CrossingTime(p, 1) },
		"decay": func() []Table { return FigDecay(p, 1) },
	}
	for name, gen := range gens {
		name, gen := name, gen
		t.Run(name, func(t *testing.T) {
			tables := gen()
			if len(tables) == 0 {
				t.Fatalf("%s produced no tables", name)
			}
			for _, tb := range tables {
				if tb.Title == "" || len(tb.Header) == 0 || len(tb.Rows) == 0 {
					t.Fatalf("%s produced a malformed table: %+v", name, tb.Title)
				}
				for _, row := range tb.Rows {
					if len(row) != len(tb.Header) {
						t.Fatalf("%s: row width %d != header width %d", name, len(row), len(tb.Header))
					}
				}
				if tb.String() == "" {
					t.Fatalf("%s: rendering failed", name)
				}
			}
		})
	}
}

func TestOracleRoutingScenario(t *testing.T) {
	sc := quickScenario(5)
	sc.OracleRouting = true
	r := Run(sc)
	if r.HitRatio < 0.6 {
		t.Fatalf("oracle-routing hit ratio %v", r.HitRatio)
	}
	if r.AdvertiseRoutingMsgs != 0 || r.LookupRoutingMsgs != 0 {
		t.Fatalf("oracle routing produced control overhead: %+v", r)
	}
	// AODV pays route establishment; oracle must not.
	aodvRun := Run(quickScenario(5))
	if aodvRun.AdvertiseRoutingMsgs <= 0 {
		t.Fatal("AODV baseline shows no routing overhead")
	}
}

func TestLookupMissCost(t *testing.T) {
	// Miss lookups pay the full quorum; hit lookups benefit from early
	// halting (UNIQUE-PATH).
	hit := Run(quickScenario(11))
	missSc := quickScenario(11)
	missSc.LookupAbsentKeys = true
	miss := Run(missSc)
	if miss.HitRatio != 0 {
		t.Fatalf("absent-key lookups hit: %v", miss.HitRatio)
	}
	if miss.LookupAppMsgs <= hit.LookupAppMsgs {
		t.Fatalf("miss cost %v should exceed hit cost %v (no early halting)",
			miss.LookupAppMsgs, hit.LookupAppMsgs)
	}
}

// TestRunArmsTheInvariantSuite: every scenario runs under internal/check,
// whatever the strategy mix — each issued lookup is seen by the suite, all
// resolve exactly once, and a static fault-free run breaches nothing.
func TestRunArmsTheInvariantSuite(t *testing.T) {
	strategies := []quorum.Strategy{
		quorum.Random, quorum.RandomOpt, quorum.Path, quorum.UniquePath, quorum.Flooding, quorum.ExpandingRing,
	}
	for _, adv := range []quorum.Strategy{quorum.Random, quorum.UniquePath} {
		for _, lk := range strategies {
			sc := quickScenario(3)
			sc.Lookups = 30
			sc.Quorum = mixConfig(sc.N, adv, lk)
			res, rep := run(sc)
			if res.Violations != 0 || !rep.OK() {
				t.Errorf("%v × %v: %d violations: %v", adv, lk, res.Violations, rep.Details)
			}
			if rep.Lookups != sc.Lookups || rep.Advertises != sc.Advertisements || rep.Outstanding != 0 {
				t.Errorf("%v × %v: suite saw %d lookups, %d advertises, %d outstanding; want %d, %d, 0",
					adv, lk, rep.Lookups, rep.Advertises, rep.Outstanding, sc.Lookups, sc.Advertisements)
			}
		}
	}
}

// TestRandomQuorumAboveDefaultViewIsNotClamped: membership.Pick returns at
// most the view, so with the view fixed at ⌈2√n⌉ = 20 a RANDOM advertise
// quorum of 30 at n=100 used to place at most 20 replicas — silently. The
// stack assembler sizes the view for the configured RANDOM quorum.
func TestRandomQuorumAboveDefaultViewIsNotClamped(t *testing.T) {
	sc := testScenario(netstack.StackIdeal, 100, 1, 10, 1, 1)
	sc.Quorum.AdvertiseSize = 30
	if r := Run(sc); r.AvgPlaced <= 20 {
		t.Errorf("|Qa|=30 at n=100 placed %.1f replicas on average: clamped to the 2√n=20 view", r.AvgPlaced)
	}
}
