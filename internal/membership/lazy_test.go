package membership

import (
	"fmt"
	"math/rand"
	"testing"

	"probquorum/internal/sim"
)

// lazyService builds a lazy-mode service over a fresh n-node network.
func lazyService(seed int64, n, viewSize int) *Service {
	e := sim.NewEngine(seed)
	net := testNet(e, n)
	return New(net, Config{ViewSize: viewSize, RefreshSecs: 1e9, Lazy: true})
}

// TestLazyViewShape checks the drawn views obey the sampler contract:
// correct size, distinct entries, never the owner, only live nodes.
func TestLazyViewShape(t *testing.T) {
	s := lazyService(3, 120, 15)
	s.net.Fail(7)
	for _, id := range []int{0, 50, 119} {
		view := s.View(id)
		if len(view) != 15 {
			t.Fatalf("node %d: view size %d, want 15", id, len(view))
		}
		seen := map[int]bool{}
		for _, v := range view {
			if v == id || v == 7 || seen[v] || !s.net.Alive(v) {
				t.Fatalf("node %d: bad view entry %d in %v", id, v, view)
			}
			seen[v] = true
		}
	}
	if s.View(7) != nil {
		t.Fatal("dead node materialized a view")
	}
}

// TestLazyMatchesEagerDraw is the lazy/eager equivalence regression: the
// view a node materializes on demand is exactly the view an eager pass
// (reading every view immediately after the refresh, in id order) would
// have produced — i.e. draws are a pure function of (seed, id, generation,
// epoch), independent of access order and access subset.
func TestLazyMatchesEagerDraw(t *testing.T) {
	const n, vs = 90, 12

	// Eager pass: one service reads every view in ascending order.
	eager := lazyService(9, n, vs)
	want := make([]string, n)
	for id := 0; id < n; id++ {
		want[id] = fmt.Sprint(eager.View(id))
	}

	// Sparse pass: an identical service reads a shuffled subset first,
	// interleaved with picks (which share the scratch buffer), then the rest.
	sparse := lazyService(9, n, vs)
	order := rand.New(rand.NewSource(42)).Perm(n)
	pickRng := rand.New(rand.NewSource(7))
	for i, id := range order {
		if i%3 == 0 {
			sparse.Pick(pickRng, id, 4)
		}
		if got := fmt.Sprint(sparse.View(id)); got != want[id] {
			t.Fatalf("node %d: lazy view depends on access order:\n got %s\nwant %s", id, got, want[id])
		}
	}
}

// TestLazyRefreshSemantics checks RefreshAll redraws every view (new
// generation), RefreshNode redraws only the bumped node, and repeated reads
// within a generation are stable.
func TestLazyRefreshSemantics(t *testing.T) {
	s := lazyService(11, 80, 10)
	v0 := fmt.Sprint(s.View(5))
	if got := fmt.Sprint(s.View(5)); got != v0 {
		t.Fatal("repeated read changed the view within a generation")
	}
	other := fmt.Sprint(s.View(6))

	s.RefreshNode(5)
	if got := fmt.Sprint(s.View(5)); got == v0 {
		t.Fatal("RefreshNode did not redraw the node's view")
	}
	if got := fmt.Sprint(s.View(6)); got != other {
		t.Fatal("RefreshNode perturbed another node's view")
	}

	s.RefreshAll()
	if got := fmt.Sprint(s.View(6)); got == other {
		t.Fatal("RefreshAll did not redraw views")
	}
}

// TestLazyPickAllocs pins the lazy hot path: with the view already
// materialized, Pick allocates only its result slice.
func TestLazyPickAllocs(t *testing.T) {
	s := lazyService(13, 400, 40)
	rng := rand.New(rand.NewSource(13))
	s.Pick(rng, 0, 8) // materialize + warm scratch
	allocs := testing.AllocsPerRun(100, func() {
		s.Pick(rng, 0, 8)
	})
	if allocs > 1 {
		t.Fatalf("lazy Pick allocates %.1f objects per call, want ≤ 1", allocs)
	}
}

// TestLazyRedrawAllocFree pins the lazy view draw: re-drawing a warmed view
// after a generation bump allocates nothing. The service's one view stream is
// re-seeded in O(1) for the draw, and the view and scratch slices are reused.
func TestLazyRedrawAllocFree(t *testing.T) {
	s := lazyService(17, 400, 40)
	s.View(3) // materialize + warm scratch
	allocs := testing.AllocsPerRun(100, func() {
		s.RefreshAll()
		s.View(3)
	})
	if allocs != 0 {
		t.Fatalf("re-drawing a lazy view allocates %.1f objects, want 0", allocs)
	}
}

// TestDeadRefreshSkips is the satellite regression: every refresh path
// releases a dead id's view without drawing, and counts the skip. The
// no-draw property is checked by comparing against a twin service that
// never saw the dead-node refresh: its stream must stay in lockstep.
func TestDeadRefreshSkips(t *testing.T) {
	build := func() *Service {
		e := sim.NewEngine(21)
		net := testNet(e, 60)
		return New(net, Config{ViewSize: 8, RefreshSecs: 1e9})
	}
	s, twin := build(), build()

	// Same topology change in both; only s performs the dead refresh, so
	// any divergence below is randomness the skip path consumed.
	s.net.Fail(9)
	twin.net.Fail(9)
	s.RefreshNode(9) // dead: must skip, not draw
	if s.View(9) != nil {
		t.Fatal("dead node kept a view after RefreshNode")
	}
	if s.DeadRefreshSkips() == 0 {
		t.Fatal("dead RefreshNode not counted")
	}

	// Both services now refresh a live node; if the dead refresh above had
	// consumed randomness the draws would diverge.
	s.RefreshNode(30)
	twin.RefreshNode(30)
	if got, want := fmt.Sprint(s.View(30)), fmt.Sprint(twin.View(30)); got != want {
		t.Fatalf("dead-node refresh consumed randomness:\n got %s\nwant %s", got, want)
	}

	// RefreshAll over a population with dead members skips each one.
	before := s.DeadRefreshSkips()
	s.net.Fail(10)
	s.RefreshAll()
	if skips := s.DeadRefreshSkips() - before; skips != 2 {
		t.Fatalf("RefreshAll counted %d dead skips, want 2", skips)
	}
}
