package membership

import (
	"math/rand"
	"testing"

	"probquorum/internal/sim"
)

// TestPickDistribution checks the partial Fisher–Yates draw is uniform
// without replacement: over many picks of k=3 from a 10-entry view, every
// view member appears with comparable frequency.
func TestPickDistribution(t *testing.T) {
	e := sim.NewEngine(5)
	net := testNet(e, 30)
	s := New(net, Config{ViewSize: 10, RefreshSecs: 1e9}) // frozen view
	rng := rand.New(rand.NewSource(11))
	counts := map[int]int{}
	const trials = 3000
	for i := 0; i < trials; i++ {
		for _, v := range s.Pick(rng, 0, 3) {
			counts[v]++
		}
	}
	if len(counts) != 10 {
		t.Fatalf("%d distinct ids drawn from a 10-entry view", len(counts))
	}
	exp := float64(trials) * 3 / 10
	for v, c := range counts {
		if float64(c) < exp*0.8 || float64(c) > exp*1.2 {
			t.Fatalf("id %d drawn %d times, expected ≈%.0f", v, c, exp)
		}
	}
}

// TestPickAllocs pins the hot-path allocation count: one slice for the
// result, nothing proportional to the view.
func TestPickAllocs(t *testing.T) {
	e := sim.NewEngine(6)
	net := testNet(e, 400)
	s := New(net, Config{ViewSize: 40, RefreshSecs: 1e9})
	rng := rand.New(rand.NewSource(13))
	s.Pick(rng, 0, 8) // warm the scratch buffer
	allocs := testing.AllocsPerRun(100, func() {
		s.Pick(rng, 0, 8)
	})
	if allocs > 1 {
		t.Fatalf("Pick allocates %.1f objects per call, want ≤ 1 (result only)", allocs)
	}
}

func TestRefreshNodeBootstrapsJoiner(t *testing.T) {
	e := sim.NewEngine(7)
	net := testNet(e, 50)
	s := New(net, Config{ViewSize: 10, RefreshSecs: 1e9})
	net.Fail(3)
	s.RefreshNode(3)
	if len(s.View(3)) != 0 {
		t.Fatal("dead node got a view")
	}
	net.Revive(3)
	s.RefreshNode(3)
	view := s.View(3)
	if len(view) != 10 {
		t.Fatalf("joiner view size = %d, want 10", len(view))
	}
	for _, v := range view {
		if v == 3 {
			t.Fatal("joiner's own id in its view")
		}
		if !net.Alive(v) {
			t.Fatalf("joiner view holds dead node %d", v)
		}
	}
}
