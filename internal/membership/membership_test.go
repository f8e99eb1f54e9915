package membership

import (
	"math/rand"
	"testing"

	"probquorum/internal/netstack"
	"probquorum/internal/sim"
)

func testNet(e *sim.Engine, n int) *netstack.Network {
	return netstack.New(e, netstack.Config{
		N: n, Stack: netstack.StackIdeal, Neighbors: netstack.NeighborsOracle,
	})
}

func TestDefaultViewSize(t *testing.T) {
	if got := DefaultViewSize(800); got != 57 { // ceil(2*28.28)
		t.Fatalf("DefaultViewSize(800) = %d, want 57", got)
	}
	if got := DefaultViewSize(1); got < 1 {
		t.Fatalf("DefaultViewSize(1) = %d", got)
	}
}

func TestOracleViews(t *testing.T) {
	e := sim.NewEngine(1)
	net := testNet(e, 100)
	s := New(net, Config{})
	for id := 0; id < 100; id++ {
		view := s.View(id)
		if len(view) != DefaultViewSize(100) {
			t.Fatalf("view size = %d, want %d", len(view), DefaultViewSize(100))
		}
		seen := map[int]bool{}
		for _, v := range view {
			if v == id {
				t.Fatalf("node %d in its own view", id)
			}
			if seen[v] {
				t.Fatalf("duplicate %d in view of %d", v, id)
			}
			seen[v] = true
		}
	}
}

func TestViewUniformity(t *testing.T) {
	e := sim.NewEngine(2)
	net := testNet(e, 50)
	s := New(net, Config{ViewSize: 10, RefreshSecs: 1})
	counts := make([]int, 50)
	// Accumulate over many refreshes.
	for r := 0; r < 200; r++ {
		e.Run(e.Now() + 1)
		for _, v := range s.View(0) {
			counts[v]++
		}
	}
	// Node 0 never appears; others should appear with comparable rates.
	if counts[0] != 0 {
		t.Fatal("self in view")
	}
	exp := 200.0 * 10 / 49
	for v := 1; v < 50; v++ {
		if float64(counts[v]) < exp/3 || float64(counts[v]) > exp*3 {
			t.Fatalf("node %d appeared %d times (expected ≈%.0f)", v, counts[v], exp)
		}
	}
}

func TestPick(t *testing.T) {
	e := sim.NewEngine(3)
	net := testNet(e, 100)
	s := New(net, Config{ViewSize: 20})
	rng := rand.New(rand.NewSource(9))
	got := s.Pick(rng, 5, 8)
	if len(got) != 8 {
		t.Fatalf("Pick returned %d ids", len(got))
	}
	seen := map[int]bool{}
	inView := map[int]bool{}
	for _, v := range s.View(5) {
		inView[v] = true
	}
	for _, v := range got {
		if seen[v] {
			t.Fatal("Pick returned duplicates")
		}
		seen[v] = true
		if !inView[v] {
			t.Fatal("Pick returned id outside the view")
		}
	}
	// Requesting more than the view yields the full view (paper's cost
	// plateau at |Q| ≥ 2√n).
	all := s.Pick(rng, 5, 100)
	if len(all) != 20 {
		t.Fatalf("oversized Pick returned %d ids, want 20", len(all))
	}
}

func TestViewsAgeUnderChurnThenRecover(t *testing.T) {
	e := sim.NewEngine(4)
	net := testNet(e, 60)
	s := New(net, Config{ViewSize: 15, RefreshSecs: 10})
	// Kill a third of the network.
	for id := 0; id < 20; id++ {
		net.Fail(id)
	}
	// Immediately after the failures (before refresh) views may contain
	// dead ids — they are stale on purpose.
	stale := 0
	for _, v := range s.View(30) {
		if !net.Alive(v) {
			stale++
		}
	}
	if stale == 0 {
		t.Skip("statistically possible but unlikely; view had no dead ids")
	}
	// After a refresh cycle, views must contain only live nodes.
	e.Run(e.Now() + 11)
	for id := 20; id < 60; id++ {
		for _, v := range s.View(id) {
			if !net.Alive(v) {
				t.Fatalf("view of %d still holds dead node %d after refresh", id, v)
			}
		}
	}
	// Dead nodes' views are cleared.
	if len(s.View(5)) != 0 {
		t.Fatal("dead node retains a view")
	}
}
