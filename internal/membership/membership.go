// Package membership provides each node with a uniform random sample of
// live node ids — the paper's random membership service (Section 4.1).
//
// The paper's simulations construct membership with RaWMS during a 200 s
// warm-up and then amortize its cost across quorum accesses, so every node
// holds 2√n uniformly random ids. This package reproduces that steady state
// with one refresher: it draws each node's view uniformly from the currently
// live nodes and redraws it periodically, so views go stale under churn
// exactly as a real membership service's do between refreshes. The draw is
// charged no messages, per the paper's amortization argument (DESIGN.md §4).
package membership

import (
	"math"
	"math/rand"

	"probquorum/internal/netstack"
	"probquorum/internal/sim"
)

// Config parameterizes the service.
type Config struct {
	// ViewSize is each node's membership list length (paper: 2√n). Zero
	// derives 2√n from the network size.
	ViewSize int
	// RefreshSecs is the view refresh period (default 30 s). Views are
	// stale between refreshes, which is what makes RANDOM quorums degrade
	// under churn until the membership catches up.
	RefreshSecs float64
	// Estimation configures the continuous network-size estimator
	// (estimator.go). Disabled by default; enabling it must be the only
	// way existing runs change, so its streams are created after every
	// pre-existing one.
	Estimation EstimationConfig
	// Lazy switches to draw-on-demand views: no view is
	// materialized until some quorum access reads it, and a refresh is an
	// O(1) generation bump instead of an O(n·|view|) redraw of every node.
	// At n=100k the dense views alone are ~500 MB and each periodic
	// refresh allocates O(n²) candidate scratch; lazily only the working
	// set (the operation origins) ever materializes. Draws are keyed on
	// (service seed, node id, generation, boot epoch), so each node's view
	// is a deterministic function independent of which other views were
	// read, or in what order — see DESIGN.md §15. The drawn views follow
	// the same uniform without-replacement distribution as eager mode but
	// are a different sample (eager consumes one shared stream in id
	// order, which draw-on-demand cannot reproduce without materializing
	// everything); recorded eager runs therefore keep their exact results
	// by keeping Lazy off.
	Lazy bool
}

// Service maintains per-node membership views.
type Service struct {
	net   *netstack.Network
	cfg   Config
	rng   *rand.Rand
	views [][]int
	// scratch is reused by Pick so the quorum hot path allocates only its
	// result slice.
	scratch []int

	// Continuous estimation state (nil slices when disabled). gens counts
	// each node's view refreshes: quorum draws from the same view
	// generation are not independent samples, so the estimator compares
	// only across generations. sampleGroup hands out fresh (negative)
	// group tags for independent single samples.
	est         []*Estimator
	gens        []int64
	sampleGroup int64
	probeRng    *rand.Rand
	probeIdx    int

	// deadSkips counts refresh passes over dead ids (views released, no
	// draw): the regression guard that refresh never materializes a view
	// for a node that is down — e.g. joiner slots or crashed nodes queued
	// for reuse by churn.
	deadSkips uint64

	// Lazy-mode state (Config.Lazy): lazySeed keys all on-demand draws,
	// curGen advances on RefreshAll, bootEpoch[id] advances when id alone
	// re-bootstraps (join/reboot), and viewGen/viewEpoch tag which
	// (generation, epoch) each cached view slice was drawn under. viewRng
	// is re-seeded for every draw, so a draw allocates nothing.
	viewRng   *rand.Rand
	lazySeed  uint64
	curGen    uint64
	bootEpoch []uint64
	viewGen   []uint64
	viewEpoch []uint64
}

// New builds the service and fills initial views (the paper's warmed-up
// state). Refreshes continue every cfg.RefreshSecs.
func New(net *netstack.Network, cfg Config) *Service {
	if cfg.ViewSize == 0 {
		cfg.ViewSize = DefaultViewSize(net.N())
	}
	if cfg.RefreshSecs == 0 {
		cfg.RefreshSecs = 30
	}
	s := &Service{
		net:   net,
		cfg:   cfg,
		rng:   net.Engine().NewStream(),
		views: make([][]int, net.N()),
	}
	if cfg.Lazy {
		if cfg.Estimation.Enable {
			panic("membership: Lazy and Estimation are mutually exclusive")
		}
		// The seed draw is the only consumption of the shared stream in
		// lazy mode; eager runs never reach this line, so their stream
		// usage — and every recorded result — is untouched.
		s.lazySeed = s.rng.Uint64()
		s.viewRng = sim.NewRand(0)
		s.curGen = 1
		s.bootEpoch = make([]uint64, net.N())
		s.viewGen = make([]uint64, net.N())
		s.viewEpoch = make([]uint64, net.N())
	}
	if cfg.Estimation.Enable {
		// Estimation state is created only when enabled, and its stream
		// only after the service's own, so disabled runs keep the exact
		// stream-derivation order (and results) of estimator-free builds.
		s.cfg.Estimation.fillDefaults()
		s.est = make([]*Estimator, net.N())
		s.gens = make([]int64, net.N())
		s.probeRng = net.Engine().NewStream()
		sim.NewTicker(net.Engine(), probeSecs, probeSecs, s.probe)
	}
	s.RefreshAll()
	sim.NewTicker(net.Engine(), cfg.RefreshSecs, cfg.RefreshSecs, s.RefreshAll)
	return s
}

// DefaultViewSize returns the paper's membership list size 2√n (at least 1).
func DefaultViewSize(n int) int {
	k := int(math.Ceil(2 * math.Sqrt(float64(n))))
	if k < 1 {
		k = 1
	}
	return k
}

// RefreshAll redraws every live node's view. In lazy mode this is an O(1)
// generation bump: views redraw themselves on next read.
func (s *Service) RefreshAll() {
	if s.cfg.Lazy {
		s.curGen++
		return
	}
	alive := s.net.AliveIDs()
	for id := range s.views {
		if !s.net.Alive(id) {
			s.skipDead(id)
			continue
		}
		s.views[id] = sampleDistinct(s.rng, alive, id, s.cfg.ViewSize)
		s.bumpGen(id)
	}
}

// GrowView raises the view size to k and redraws every view at once when k
// exceeds it, so a quorum of k members drawn from a view is not cut to the
// old size. A k at or below the view size leaves the views alone.
func (s *Service) GrowView(k int) {
	if k <= s.cfg.ViewSize {
		return
	}
	s.cfg.ViewSize = k
	s.RefreshAll()
}

// DeadRefreshSkips reports how many times a refresh pass skipped a dead id
// (releasing its view without drawing) instead of materializing a view for
// a node that is down.
func (s *Service) DeadRefreshSkips() uint64 { return s.deadSkips }

// skipDead releases a dead id's view without consuming any randomness.
func (s *Service) skipDead(id int) {
	s.views[id] = nil
	s.deadSkips++
}

// bumpGen advances a node's view generation: the redrawn view is a fresh
// independent sample, so estimator observations from it may be compared
// against observations from earlier generations.
func (s *Service) bumpGen(id int) {
	if s.gens != nil {
		s.gens[id]++
	}
}

// View returns node id's current membership list. The slice is owned by the
// service; do not modify. In lazy mode this is where the view materializes.
func (s *Service) View(id int) []int {
	if s.cfg.Lazy {
		return s.ensureView(id)
	}
	return s.views[id]
}

// ensureView returns id's lazy view, drawing it if the cached slice predates
// the current (generation, boot epoch). The draw is a pure function of
// (lazySeed, id, generation, epoch) and the current alive set, so it does
// not depend on which other views were read or in what order — reading
// every view equals refreshing eagerly (see TestLazyMatchesEagerDraw).
func (s *Service) ensureView(id int) []int {
	if !s.net.Alive(id) {
		if s.views[id] != nil {
			s.skipDead(id)
		}
		return nil
	}
	if s.views[id] != nil && s.viewGen[id] == s.curGen && s.viewEpoch[id] == s.bootEpoch[id] {
		return s.views[id]
	}
	rng := s.viewRng
	rng.Seed(int64(mix64(s.lazySeed, uint64(id), s.curGen, s.bootEpoch[id])))
	// Same uniform without-replacement draw as sampleDistinct, staged
	// through the reused scratch so materialization doesn't allocate the
	// O(n) candidate slice eager refreshes pay per node.
	s.scratch = s.scratch[:0]
	for _, v := range s.net.AliveIDs() {
		if v != id {
			s.scratch = append(s.scratch, v)
		}
	}
	k := s.cfg.ViewSize
	if k > len(s.scratch) {
		k = len(s.scratch)
	}
	view := s.views[id][:0]
	for i := 0; i < k; i++ {
		j := i + rng.Intn(len(s.scratch)-i)
		s.scratch[i], s.scratch[j] = s.scratch[j], s.scratch[i]
		view = append(view, s.scratch[i])
	}
	s.views[id] = view
	s.viewGen[id] = s.curGen
	s.viewEpoch[id] = s.bootEpoch[id]
	return view
}

// mix64 folds the inputs through splitmix64 steps into one well-distributed
// per-draw seed.
func mix64(vals ...uint64) uint64 {
	z := uint64(0x9e3779b97f4a7c15)
	for _, v := range vals {
		z ^= v + 0x9e3779b97f4a7c15 + (z << 6) + (z >> 2)
		z += 0x9e3779b97f4a7c15
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
	}
	return z
}

// Pick returns up to k distinct ids drawn without replacement from node
// id's view — the RANDOM strategy's quorum selection. Requesting more than
// the view holds returns the whole view (the paper's cost plateau for
// |Q| ≥ 2√n, Section 8.1); the quorum system keeps its sizes within the view
// with GrowView.
func (s *Service) Pick(rng *rand.Rand, id, k int) []int {
	view := s.View(id)
	if k >= len(view) {
		out := make([]int, len(view))
		copy(out, view)
		return out
	}
	// Partial Fisher–Yates over a reused scratch copy: the same uniform
	// without-replacement distribution as a full Perm, but only k swaps
	// and no O(len(view)) garbage per quorum access.
	s.scratch = append(s.scratch[:0], view...)
	out := make([]int, k)
	for i := 0; i < k; i++ {
		j := i + rng.Intn(len(s.scratch)-i)
		s.scratch[i], s.scratch[j] = s.scratch[j], s.scratch[i]
		out[i] = s.scratch[i]
	}
	return out
}

// RefreshNode redraws a single node's view immediately — e.g. to bootstrap
// a node that just joined, which would otherwise stay viewless (and hold a
// stale spot in other views) until the next periodic RefreshAll.
func (s *Service) RefreshNode(id int) {
	if !s.net.Alive(id) {
		s.skipDead(id)
		return
	}
	if s.cfg.Lazy {
		// O(1): the epoch bump keys a fresh independent draw on next read.
		s.bootEpoch[id]++
		return
	}
	s.views[id] = sampleDistinct(s.rng, s.net.AliveIDs(), id, s.cfg.ViewSize)
	s.bumpGen(id)
}

// sampleDistinct draws k distinct elements of pool, excluding exclude.
func sampleDistinct(rng *rand.Rand, pool []int, exclude, k int) []int {
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
