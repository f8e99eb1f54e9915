package membership

import (
	"math/rand"
	"slices"
	"testing"

	"probquorum/internal/netstack"
	"probquorum/internal/sim"
)

// refSampleDistinct is the eager view draw the service made before it had
// one sampler (draw), kept verbatim as the oracle of
// TestViewDrawMatchesReference: it draws k distinct elements of pool,
// excluding exclude, into a fresh candidate array.
func refSampleDistinct(rng *rand.Rand, pool []int, exclude, k int) []int {
	candidates := make([]int, 0, len(pool))
	for _, v := range pool {
		if v != exclude {
			candidates = append(candidates, v)
		}
	}
	if k > len(candidates) {
		k = len(candidates)
	}
	// Partial Fisher–Yates shuffle.
	for i := 0; i < k; i++ {
		j := i + rng.Intn(len(candidates)-i)
		candidates[i], candidates[j] = candidates[j], candidates[i]
	}
	return candidates[:k]
}

// refPick is the body Pick had before it had one sampler, kept verbatim
// apart from taking the view as an argument.
func refPick(rng *rand.Rand, view []int, k int) []int {
	if k >= len(view) {
		out := make([]int, len(view))
		copy(out, view)
		return out
	}
	scratch := append([]int(nil), view...)
	out := make([]int, k)
	for i := 0; i < k; i++ {
		j := i + rng.Intn(len(scratch)-i)
		scratch[i], scratch[j] = scratch[j], scratch[i]
		out[i] = scratch[i]
	}
	return out
}

// refViews replays the service's view bookkeeping — eager views redrawn
// from one stream, lazy views drawn on read under a (generation, epoch)
// key — on the reference draws.
type refViews struct {
	net   *netstack.Network
	lazy  bool
	k     int
	rng   *rand.Rand // eager draws
	seed  uint64     // lazy draws are keyed on (seed, id, gen, epoch[id])
	gen   uint64
	epoch []uint64
	tag   [][2]uint64 // the (gen, epoch) a cached lazy view was drawn under
	last  *rand.Rand  // the stream of the latest lazy draw
	views [][]int
}

func (r *refViews) refreshAll() {
	if r.lazy {
		r.gen++
		return
	}
	alive := r.net.AliveIDs()
	for id := range r.views {
		if !r.net.Alive(id) {
			r.views[id] = nil
			continue
		}
		r.views[id] = refSampleDistinct(r.rng, alive, id, r.k)
	}
}

func (r *refViews) refreshNode(id int) {
	switch {
	case !r.net.Alive(id):
		r.views[id] = nil
	case r.lazy:
		r.epoch[id]++
	default:
		r.views[id] = refSampleDistinct(r.rng, r.net.AliveIDs(), id, r.k)
	}
}

func (r *refViews) growView(k int) {
	if k > r.k {
		r.k = k
		r.refreshAll()
	}
}

func (r *refViews) view(id int) []int {
	if !r.lazy {
		return r.views[id]
	}
	if !r.net.Alive(id) {
		r.views[id] = nil
		return nil
	}
	if tag := [2]uint64{r.gen, r.epoch[id]}; r.views[id] == nil || r.tag[id] != tag {
		r.last = rand.New(rand.NewSource(int64(mix64(r.seed, uint64(id), r.gen, r.epoch[id]))))
		r.views[id], r.tag[id] = refSampleDistinct(r.last, r.net.AliveIDs(), id, r.k), tag
	}
	return r.views[id]
}

// TestViewDrawMatchesReference holds the one sampler (draw) and the views'
// own arrays to the three draws they replaced: over 20 seeds, on eager and
// lazy services, a random program of RefreshAll, RefreshNode, GrowView and
// kill/revive churn, interleaved with picks below, at and above the view
// size, must read the same views and picks as refViews and refPick, and
// leave every stream at the same next draw. A Pick of the whole view that
// consumed draws, or a refresh that drew from the stream in another order,
// fails it.
func TestViewDrawMatchesReference(t *testing.T) {
	const n, steps = 60, 400
	for _, lazy := range []bool{false, true} {
		for seed := int64(1); seed <= 20; seed++ {
			e := sim.NewEngine(seed)
			net := testNet(e, n)
			s := New(net, Config{ViewSize: 8, RefreshSecs: 1e9, Lazy: lazy})
			s.rng = sim.NewRand(seed)
			r := &refViews{
				net: net, lazy: lazy, k: 8, rng: rand.New(rand.NewSource(seed)),
				seed: s.lazySeed, gen: s.curGen,
				epoch: make([]uint64, n), tag: make([][2]uint64, n), views: make([][]int, n),
			}
			prog := rand.New(rand.NewSource(100 + seed))
			pickS, pickR := rand.New(rand.NewSource(200+seed)), rand.New(rand.NewSource(200+seed))
			var picked []int
			s.RefreshAll()
			r.refreshAll()
			for step := 0; step < steps; step++ {
				id := prog.Intn(n)
				switch op := prog.Intn(10); {
				case op == 0:
					s.RefreshAll()
					r.refreshAll()
				case op == 1:
					s.RefreshNode(id)
					r.refreshNode(id)
				case op == 2 && r.k < 30:
					s.GrowView(r.k + 3)
					r.growView(r.k + 3)
				case op == 3 && net.Alive(id) && len(net.AliveIDs()) > n/2:
					net.Fail(id)
				case op == 4 && !net.Alive(id):
					net.Revive(id)
					s.RefreshNode(id)
					r.refreshNode(id)
				default:
					k := r.k + []int{-3, 0, 5}[prog.Intn(3)]
					picked = s.AppendPick(picked[:0], pickS, id, k)
					if want := refPick(pickR, r.view(id), k); !slices.Equal(picked, want) {
						t.Fatalf("lazy=%v seed %d step %d: Pick(%d, k=%d) = %v, reference %v", lazy, seed, step, id, k, picked, want)
					}
				}
				if got, want := s.View(id), r.view(id); !slices.Equal(got, want) {
					t.Fatalf("lazy=%v seed %d step %d: view of %d = %v, reference %v", lazy, seed, step, id, got, want)
				}
			}
			for id := 0; id < n; id++ {
				if got, want := s.View(id), r.view(id); !slices.Equal(got, want) {
					t.Fatalf("lazy=%v seed %d: final view of %d = %v, reference %v", lazy, seed, id, got, want)
				}
			}
			if s.rng.Int63() != r.rng.Int63() || pickS.Int63() != pickR.Int63() {
				t.Fatalf("lazy=%v seed %d: the service stream or the pick stream is not at the reference's next draw", lazy, seed)
			}
			if lazy && s.viewRng.Int63() != r.last.Int63() {
				t.Fatalf("seed %d: the lazy view stream is not at the reference's next draw", seed)
			}
		}
	}
}

// TestViewArraysHoldOnlyTheView pins what a view keeps alive: an array of
// capacity ViewSize, not the n-sized candidate array it was drawn from,
// after RefreshAll, RefreshNode and GrowView, eager and lazy.
func TestViewArraysHoldOnlyTheView(t *testing.T) {
	for _, lazy := range []bool{false, true} {
		e := sim.NewEngine(8)
		net := testNet(e, 200)
		s := New(net, Config{ViewSize: 10, RefreshSecs: 1e9, Lazy: lazy})
		check := func(after string) {
			t.Helper()
			for id := 0; id < 200; id++ {
				if v := s.View(id); cap(v) != s.cfg.ViewSize {
					t.Fatalf("lazy=%v, after %s: view of %d has capacity %d, want ViewSize %d", lazy, after, id, cap(v), s.cfg.ViewSize)
				}
			}
		}
		check("New")
		s.RefreshAll()
		check("RefreshAll")
		net.Fail(7)
		s.RefreshNode(7)
		net.Revive(7)
		s.RefreshNode(7)
		s.RefreshNode(8)
		check("RefreshNode")
		s.GrowView(14)
		check("GrowView")
	}
}

// TestRefreshAllAllocFree pins an eager refresh at zero allocations in
// steady state: every view is redrawn into its own array and the candidates
// are staged in the service's scratch. A dead node takes the skip path.
func TestRefreshAllAllocFree(t *testing.T) {
	e := sim.NewEngine(10)
	net := testNet(e, 500)
	s := New(net, Config{RefreshSecs: 1e9})
	net.Fail(3)
	s.RefreshAll()
	if allocs := testing.AllocsPerRun(5, s.RefreshAll); allocs != 0 {
		t.Fatalf("an eager RefreshAll at n=500 allocates %.1f objects, want 0", allocs)
	}
}

// TestViewDrawUniform is the χ² check of the view draw, eager and lazy: over
// 2 000 refreshes of 60 views of 16, each id's count of view appearances
// must be uniform at p = 0.001, and no view may hold its owner or an id
// twice.
//
// Id v sits in each other node's view with probability p = k/(n−1),
// independently across views, so its count has mean R·k and variance
// R·(n−1)·p(1−p); the counts sum to R·n·k, which makes their covariance
// matrix that variance times n/(n−1)·(I − J/n). Normalised by it, the sum of
// squared deviations is χ² with n−1 = 59 degrees of freedom, whose 0.999
// quantile is 98.32.
func TestViewDrawUniform(t *testing.T) {
	const n, k, refreshes, crit = 60, 16, 2000, 98.32
	for _, lazy := range []bool{false, true} {
		e := sim.NewEngine(12)
		net := testNet(e, n)
		s := New(net, Config{ViewSize: k, RefreshSecs: 1e9, Lazy: lazy})
		counts := make([]float64, n)
		for r := 0; r < refreshes; r++ {
			s.RefreshAll()
			for id := 0; id < n; id++ {
				seen := map[int]bool{}
				for _, v := range s.View(id) {
					if v == id || seen[v] {
						t.Fatalf("lazy=%v refresh %d: view of %d holds %d twice or its owner: %v", lazy, r, id, v, s.View(id))
					}
					seen[v] = true
					counts[v]++
				}
			}
		}
		p := float64(k) / (n - 1)
		mean, scale := float64(refreshes*k), float64(refreshes)*n*p*(1-p)
		chi2 := 0.0
		for _, c := range counts {
			chi2 += (c - mean) * (c - mean) / scale
		}
		if chi2 > crit {
			t.Fatalf("lazy=%v: view appearances not uniform: χ² = %.1f > %.2f (59 df, p = 0.001)", lazy, chi2, crit)
		}
		t.Logf("lazy=%v: χ² = %.1f (59 df, 0.999 quantile %.2f)", lazy, chi2, crit)
	}
}
