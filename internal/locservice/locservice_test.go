package locservice

import (
	"testing"

	"probquorum/internal/aodv"
	"probquorum/internal/membership"
	"probquorum/internal/netstack"
	"probquorum/internal/quorum"
	"probquorum/internal/sim"
)

func testWorld(seed int64, n int, cfg Config) (*sim.Engine, *netstack.Network, *Service) {
	e := sim.NewEngine(seed)
	net := netstack.New(e, netstack.Config{N: n, AvgDegree: 12, Stack: netstack.StackIdeal})
	routing := aodv.New(net, aodv.Config{})
	members := membership.New(net, membership.Config{})
	qc := quorum.DefaultConfig(n)
	qc.LookupTimeout = 10
	sys := quorum.New(net, routing, members, qc)
	return e, net, New(sys, net, cfg)
}

func locate(e *sim.Engine, s *Service, origin, target int) LookupResult {
	var res LookupResult
	done := false
	s.Locate(origin, target, func(r LookupResult) { res = r; done = true })
	for !done {
		e.Run(e.Now() + 1)
	}
	return res
}

func TestPublishAndLocate(t *testing.T) {
	e, _, s := testWorld(1, 100, Config{})
	s.Publish(7)
	e.Run(e.Now() + 10)
	res := locate(e, s, 80, 7)
	if !res.Found || res.Location == "" {
		t.Fatalf("locate failed: %+v", res)
	}
	// Unregistered target misses.
	if locate(e, s, 80, 55).Found {
		t.Fatal("located an unpublished node")
	}
}

func TestRefreshPeriodDerivation(t *testing.T) {
	// ε=0.1, floor at 0.85 intersection → tolerable churn
	// f = 1 − ln(0.15)/ln(0.1) ≈ 0.176; at 1%/s churn that is ≈17.6 s.
	_, _, s := testWorld(2, 100, Config{
		Epsilon: 0.1, MinIntersection: 0.85, ChurnPerSecond: 0.01,
	})
	p := s.RefreshPeriod()
	if p < 14 || p > 22 {
		t.Fatalf("refresh period %v, want ≈17.6 s", p)
	}
	// No churn estimate → no automatic refresh.
	_, _, s2 := testWorld(2, 100, Config{})
	if s2.RefreshPeriod() != 0 {
		t.Fatal("refresh should be disabled without a churn rate")
	}
	// Faster churn → shorter period.
	_, _, s3 := testWorld(2, 100, Config{
		Epsilon: 0.1, MinIntersection: 0.85, ChurnPerSecond: 0.02,
	})
	if s3.RefreshPeriod() >= p {
		t.Fatal("doubling churn should shorten the refresh period")
	}
}

func TestAutomaticRefreshSurvivesChurn(t *testing.T) {
	e, net, s := testWorld(3, 150, Config{
		Epsilon: 0.1, MinIntersection: 0.8, ChurnPerSecond: 0.005,
		MinRefreshSecs: 20,
	})
	s.Publish(5)
	e.Run(e.Now() + 5)

	// Crash half the network (sparing the publisher); without refresh the
	// advertise quorum thins out, but periodic re-advertisement rebuilds
	// it from the live membership.
	killed := 0
	for id := 10; id < 150 && killed < 75; id += 2 {
		if id != 5 {
			net.Fail(id)
			killed++
		}
	}
	// Let several refresh cycles run (membership refreshes too).
	e.Run(e.Now() + 120)
	if s.Refreshes == 0 {
		t.Fatal("no automatic refreshes happened")
	}

	hits := 0
	const tries = 10
	for i := 0; i < tries; i++ {
		origin := (i*31 + 11) % 150
		for !net.Alive(origin) {
			origin = (origin + 1) % 150
		}
		if locate(e, s, origin, 5).Found {
			hits++
		}
	}
	if hits < 7 {
		t.Fatalf("only %d/%d locates succeeded after churn + refresh", hits, tries)
	}
}

func TestPublishIdempotent(t *testing.T) {
	e, _, s := testWorld(5, 80, Config{
		Epsilon: 0.1, MinIntersection: 0.85, ChurnPerSecond: 0.01,
		MinRefreshSecs: 5,
	})
	s.Publish(3)
	s.Publish(3) // must not double the ticker
	e.Run(e.Now() + 26)
	// With a single ticker at 5 s period, ≈5 refreshes; a doubled ticker
	// would show ≈10.
	if s.Refreshes > 7 {
		t.Fatalf("duplicate Publish doubled refreshes: %d", s.Refreshes)
	}
}

func TestMovingTargetLocationUpdates(t *testing.T) {
	// A static network can't move, so drive PositionOf manually: the
	// refresh must propagate new values.
	loc := "old-place"
	e, _, s := testWorld(6, 100, Config{
		Epsilon: 0.1, MinIntersection: 0.85, ChurnPerSecond: 0.01,
		MinRefreshSecs: 5,
		PositionOf:     func(id int) string { return loc },
	})
	s.Publish(9)
	e.Run(e.Now() + 3)
	if got := locate(e, s, 50, 9); got.Found && got.Location != "old-place" {
		t.Fatalf("initial location %q", got.Location)
	}
	loc = "new-place"
	e.Run(e.Now() + 15) // a few refresh cycles re-advertise the new value
	got := locate(e, s, 60, 9)
	if !got.Found {
		t.Skip("probabilistic miss")
	}
	if got.Location != "new-place" {
		t.Fatalf("stale location %q after refresh", got.Location)
	}
}

func TestStopHaltsAllRefreshers(t *testing.T) {
	e, _, s := testWorld(6, 80, Config{
		Epsilon: 0.1, MinIntersection: 0.85, ChurnPerSecond: 0.01,
		MinRefreshSecs: 5,
	})
	for _, id := range []int{9, 3, 41, 17, 28} {
		s.Publish(id)
	}
	e.Run(e.Now() + 20)
	if s.Refreshes == 0 {
		t.Fatal("no refreshes before Stop")
	}
	count := s.Refreshes
	s.Stop()
	s.Stop() // idempotent on an empty ticker map
	if n := len(s.tickers); n != 0 {
		t.Fatalf("ticker map should be empty after Stop, has %d entries", n)
	}
	e.Run(e.Now() + 60)
	if s.Refreshes != count {
		t.Fatalf("refreshes continued after Stop: %d → %d", count, s.Refreshes)
	}
	// Publishing after Stop restarts refreshing from scratch.
	s.Publish(3)
	e.Run(e.Now() + 20)
	if s.Refreshes == count {
		t.Fatal("Publish after Stop should resume refreshing")
	}
}
