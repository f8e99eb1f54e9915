package probquorum

import (
	"fmt"
	"testing"
)

func TestClusterAdvertiseLookup(t *testing.T) {
	c := NewCluster(ClusterConfig{Nodes: 100, Seed: 1})
	ad := c.AdvertiseWait(3, "printer", "room-217")
	if ad.Placed < 10 {
		t.Fatalf("advertise placed %d copies", ad.Placed)
	}
	res := c.LookupWait(42, "printer")
	if !res.Hit || res.Value != "room-217" {
		t.Fatalf("lookup result %+v", res)
	}
	if c.Messages() == 0 {
		t.Fatal("no messages counted")
	}
}

func TestClusterMissForAbsentKey(t *testing.T) {
	c := NewCluster(ClusterConfig{Nodes: 60, Seed: 2})
	res := c.LookupWait(5, "nothing")
	if res.Hit || res.Intersected {
		t.Fatalf("absent key result %+v", res)
	}
}

func TestClusterHitRatioNearDesignPoint(t *testing.T) {
	c := NewCluster(ClusterConfig{Nodes: 120, Seed: 3})
	for k := 0; k < 8; k++ {
		c.Advertise(k*13%120, fmt.Sprintf("k%d", k), "v", nil)
	}
	c.RunFor(30)
	hits := 0
	const lookups = 40
	for i := 0; i < lookups; i++ {
		if c.LookupWait((i*17+1)%120, fmt.Sprintf("k%d", i%8)).Hit {
			hits++
		}
	}
	hr := float64(hits) / lookups
	if hr < 0.7 {
		t.Fatalf("hit ratio %.2f below design point 0.9 margin", hr)
	}
}

func TestClusterChurn(t *testing.T) {
	c := NewCluster(ClusterConfig{Nodes: 100, AvgDegree: 15, Seed: 4})
	c.AdvertiseWait(0, "k", "v")
	for id := 10; id < 35; id++ {
		c.Fail(id)
	}
	if c.NumAlive() != 75 {
		t.Fatalf("NumAlive = %d", c.NumAlive())
	}
	if c.Alive(10) || !c.Alive(50) {
		t.Fatal("Alive() inconsistent")
	}
	c.Revive(10)
	if !c.Alive(10) {
		t.Fatal("Revive failed")
	}
	// The quorum keeps working after failures.
	res := c.LookupWait(60, "k")
	if !res.Hit && !res.Intersected {
		t.Log("post-churn lookup missed (acceptable probabilistically)")
	}
}

func TestClusterContinuousChurn(t *testing.T) {
	cfg := DefaultQuorumConfig(100)
	cfg.LookupRetries = 1
	cfg.ReadvertiseSecs = 10
	c := NewCluster(ClusterConfig{
		Nodes: 100, AvgDegree: 15, Seed: 7, Quorum: cfg,
		ChurnFailRate: 0.5, ChurnJoinRate: 0.5, RxLossProb: 0.02,
	})
	c.AdvertiseWait(0, "k", "v")
	c.RunFor(40)
	st := c.ChurnStats()
	if st.Fails == 0 || st.Joins == 0 {
		t.Fatalf("churn process idle: %+v", st)
	}
	c.StopChurn()
	frozen := c.ChurnStats()
	c.RunFor(40)
	if c.ChurnStats() != frozen {
		t.Fatalf("churn continued after StopChurn: %+v → %+v", frozen, c.ChurnStats())
	}
	// The quorum system keeps serving through and after the churn window
	// (re-advertise repairs replicas lost to crashes).
	hits := 0
	for i := 0; i < 10; i++ {
		if !c.Alive((i*11 + 5) % 100) {
			continue
		}
		if c.LookupWait((i*11+5)%100, "k").Hit {
			hits++
		}
	}
	if hits < 5 {
		t.Fatalf("only %d hits after churn with recovery enabled", hits)
	}
}

// TestClusterAdaptive drives the facade's adaptive mode end to end: NewCluster
// wires the size estimator and the controller, a third of the nodes fail,
// and operations keep flowing across several control periods.
func TestClusterAdaptive(t *testing.T) {
	const n = 120
	c := NewCluster(ClusterConfig{Nodes: n, Seed: 12, Adaptive: true})
	for id := 0; id < n; id += 3 {
		c.Fail(id)
	}
	live := func(i int) int { return 3*(i%(n/3)) + 1 + i%2 } // never a multiple of 3
	// 100 s of traffic: five 20 s control periods.
	for i := 0; i < 100; i++ {
		c.Advertise(live(i), fmt.Sprintf("k%d", i%10), "v", nil)
		c.Lookup(live(7*i+3), fmt.Sprintf("k%d", (i+5)%10), nil)
		c.RunFor(1)
	}
	c.RunFor(60) // drain every operation past its timeout
	if rep := c.CheckReport(); !rep.OK() {
		t.Fatalf("adaptive cluster breached invariants: %+v", rep.Details)
	}
	if est := c.SizeEstimate(); !est.OK {
		t.Fatalf("no usable size estimate after %v s of traffic: %+v", c.Now(), est)
	}
	if st := c.AdaptStatus(); st.Resizes+st.Skips == 0 {
		t.Fatalf("controller never decided: %+v", st)
	}
}

func TestClusterChurnStatsZeroWhenDisabled(t *testing.T) {
	c := NewCluster(ClusterConfig{Nodes: 40, Seed: 8})
	if st := c.ChurnStats(); st != (ChurnStats{}) {
		t.Fatalf("churn stats without churn: %+v", st)
	}
	c.StopChurn() // must be a no-op, not a panic
}

func TestClusterMobile(t *testing.T) {
	c := NewCluster(ClusterConfig{Nodes: 80, Seed: 5, MaxSpeed: 2})
	c.AdvertiseWait(0, "k", "v")
	hits := 0
	for i := 0; i < 10; i++ {
		if c.LookupWait((i*7+3)%80, "k").Hit {
			hits++
		}
	}
	if hits < 6 {
		t.Fatalf("mobile cluster: only %d/10 hits", hits)
	}
}

func TestClusterCustomMix(t *testing.T) {
	cfg := DefaultQuorumConfig(90)
	cfg.AdvertiseStrategy, cfg.LookupStrategy = Random, Flooding
	cfg.LookupTTL = 3
	c := NewCluster(ClusterConfig{Nodes: 90, Seed: 6, Quorum: cfg})
	c.AdvertiseWait(0, "k", "v")
	res := c.LookupWait(45, "k")
	if !res.Hit {
		t.Log("flooding lookup missed (TTL-scoped; acceptable probabilistically)")
	}
}

// TestClusterLargeRandomQuorumIsNotClamped: a configured RANDOM |Qa| above
// the default ⌈2√n⌉ = 20 membership view is honoured, not truncated to it.
func TestClusterLargeRandomQuorumIsNotClamped(t *testing.T) {
	cfg := DefaultQuorumConfig(100)
	cfg.AdvertiseSize = 30
	c := NewCluster(ClusterConfig{Nodes: 100, Seed: 1, Quorum: cfg})
	if res := c.AdvertiseWait(0, "k", "v"); res.Placed <= 20 {
		t.Errorf("|Qa|=30 at n=100 placed %d replicas: clamped to the 2√n=20 view", res.Placed)
	}
}

func TestClusterSetLookupSize(t *testing.T) {
	c := NewCluster(ClusterConfig{Nodes: 60, Seed: 7})
	c.SetLookupSize(5) // must not panic; behaviour covered in internal tests
	c.AdvertiseWait(0, "k", "v")
	c.LookupWait(30, "k")
}

func TestSizingReexports(t *testing.T) {
	qa, ql := SizeForEpsilon(800, 0.1, 1)
	if qa*ql < 1842 { // 800·ln10 ≈ 1842
		t.Fatalf("SizeForEpsilon product %d", qa*ql)
	}
	if NonIntersectProb(800, qa, ql) > 0.1 {
		t.Fatal("bound violated")
	}
	if r := OptimalSizeRatio(10, 5, 1); r != 0.5 {
		t.Fatalf("OptimalSizeRatio = %v", r)
	}
}

func TestRunScenarioFacade(t *testing.T) {
	sc := Scenario{Advertisements: 5, Lookups: 20, LookupNodes: 4}
	sc.N, sc.Seed, sc.Link.Stack = 60, 1, StackIdeal
	sc.Quorum = DefaultQuorumConfig(60)
	r := RunScenario(sc)
	if r.HitRatio <= 0 {
		t.Fatalf("facade scenario hit ratio %v", r.HitRatio)
	}
	r3 := RunScenarioSeeds(sc, 2)
	if r3.Runs != 2 {
		t.Fatalf("Runs = %d", r3.Runs)
	}
}

func TestNewClusterValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for zero Nodes")
		}
	}()
	NewCluster(ClusterConfig{})
}

func TestClusterLocationService(t *testing.T) {
	c := NewCluster(ClusterConfig{Nodes: 100, Seed: 8})
	svc := c.NewLocationService(LocationServiceConfig{
		MinIntersection: 0.85, ChurnPerSecond: 0.01, MinRefreshSecs: 5,
	})
	if svc.RefreshPeriod() <= 0 {
		t.Fatal("refresh period not derived")
	}
	svc.Publish(4)
	c.RunFor(10)
	done := false
	var found bool
	svc.Locate(70, 4, func(r LocateResult) { found = r.Found; done = true })
	for !done {
		c.RunFor(1)
	}
	if !found {
		t.Fatal("location service failed to resolve a published node")
	}
}

func TestClusterPartitionAndHeal(t *testing.T) {
	c := NewCluster(ClusterConfig{Nodes: 80, AvgDegree: 15, Seed: 9})
	c.AdvertiseWait(0, "k", "v")

	// Split the network in half; lookups issued from one side should stop
	// reaching replicas on the other, so the hit ratio collapses well
	// below the fault-free design point.
	var left, right []int
	for id := 0; id < 80; id++ {
		if id < 40 {
			left = append(left, id)
		} else {
			right = append(right, id)
		}
	}
	c.Partition(left, right)
	partHits := 0
	for i := 0; i < 6; i++ {
		if c.LookupWait((i*13+41)%40+40, "k").Hit {
			partHits++
		}
	}

	c.Heal()
	c.RunFor(5)
	healHits := 0
	for i := 0; i < 6; i++ {
		if c.LookupWait((i*13+41)%40+40, "k").Hit {
			healHits++
		}
	}
	if healHits < 4 {
		t.Fatalf("post-heal hits %d/6; healing did not restore the quorum", healHits)
	}
	if partHits > healHits {
		t.Fatalf("partitioned hits %d > healed hits %d", partHits, healHits)
	}

	rep := c.CheckReport()
	if !rep.OK() {
		t.Fatalf("invariant violations: %v", rep.Details)
	}
	if rep.Outstanding != 0 {
		t.Fatalf("%d operations left outstanding", rep.Outstanding)
	}
	if rep.Lookups != 12 || rep.Advertises != 1 {
		t.Fatalf("checker tallies off: %d lookups, %d advertises", rep.Lookups, rep.Advertises)
	}
}

func TestClusterScheduledFaults(t *testing.T) {
	c := NewCluster(ClusterConfig{
		Nodes: 60, AvgDegree: 15, Seed: 10,
		Faults: []FaultEpisode{
			{Kind: FaultLoss, Start: 1, Duration: 8, Prob: 0.3},
			{Kind: FaultDuplicate, Start: 2, Duration: 8, Prob: 0.3},
		},
	})
	c.AdvertiseWait(0, "k", "v")
	for i := 0; i < 5; i++ {
		c.LookupWait((i*11+7)%60, "k")
	}
	c.RunFor(20) // past every episode's heal time
	rep := c.CheckReport()
	if !rep.OK() {
		t.Fatalf("invariant violations under scheduled faults: %v", rep.Details)
	}
	if rep.Lookups != 5 {
		t.Fatalf("checker saw %d lookups, want 5", rep.Lookups)
	}
}

func TestClusterCheckReportMidRunIsRepeatable(t *testing.T) {
	c := NewCluster(ClusterConfig{Nodes: 40, Seed: 11})
	c.Lookup(0, "nothing", nil)
	// Mid-flight: the unresolved op shows up as Outstanding (and its
	// violation entry), but asking twice must not compound the count.
	a, b := c.CheckReport(), c.CheckReport()
	if a.Outstanding != 1 || b.Outstanding != 1 {
		t.Fatalf("outstanding = %d, %d; want 1, 1", a.Outstanding, b.Outstanding)
	}
	if a.Violations != b.Violations {
		t.Fatalf("CheckReport not idempotent: %d then %d violations", a.Violations, b.Violations)
	}
	c.RunFor(30) // drain past the lookup timeout
	if rep := c.CheckReport(); !rep.OK() || rep.Outstanding != 0 {
		t.Fatalf("drained report not clean: %+v", rep)
	}
}

// Golden determinism: a fixed seed must keep producing the same results
// across refactorings (math/rand sequences are stable per Go's
// compatibility promise). If an intentional protocol change shifts these
// numbers, update them consciously.
func TestGoldenDeterminism(t *testing.T) {
	sc := Scenario{Advertisements: 8, Lookups: 40, LookupNodes: 4}
	sc.N, sc.Seed, sc.Link.Stack = 80, 424242, StackIdeal
	sc.Quorum = DefaultQuorumConfig(80)
	a := RunScenario(sc)
	b := RunScenario(sc)
	if a.HitRatio != b.HitRatio || a.LookupAppMsgs != b.LookupAppMsgs ||
		a.AdvertiseAppMsgs != b.AdvertiseAppMsgs {
		t.Fatalf("same-seed scenario not reproducible: %+v vs %+v", a, b)
	}
	if a.HitRatio < 0.7 || a.HitRatio > 1.0 {
		t.Fatalf("golden run hit ratio drifted out of band: %v", a.HitRatio)
	}
}
