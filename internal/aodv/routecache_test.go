package aodv

import (
	"fmt"
	"math/rand"
	"testing"

	"probquorum/internal/geom"
	"probquorum/internal/mobility"
	"probquorum/internal/netstack"
	"probquorum/internal/sim"
)

// oracleWorld builds a static topology with an Oracle router on the ideal
// stack: exact neighbors that never move, so NewOracle installs the cache.
func oracleWorld(pts []geom.Point, side float64) (*sim.Engine, *netstack.Network, *Oracle) {
	e := sim.NewEngine(1)
	net := netstack.New(e, netstack.Config{
		N: len(pts), Side: side, Mobility: mobility.NewStatic(pts), Stack: netstack.StackIdeal,
	})
	return e, net, NewOracle(net)
}

// bfsHop is the reference: o's answer with the cache taken away, i.e. the
// per-hop forward BFS over the same network in the same state.
func bfsHop(o *Oracle, src, dst, ttl int) (int, bool) {
	c := o.cache
	o.cache = nil
	defer func() { o.cache = c }()
	return o.nextHop(src, dst, ttl)
}

// checkAgainstBFS requires the cache to return the BFS's verdict and the
// BFS's hop for every alive src, every dst and ttl 0…6.
func checkAgainstBFS(t *testing.T, name string, net *netstack.Network, o *Oracle) {
	t.Helper()
	n := net.N()
	for src := 0; src < n; src++ {
		if !net.Alive(src) {
			continue
		}
		for dst := 0; dst < n; dst++ {
			for ttl := 0; ttl <= 6; ttl++ {
				want, wantOK := bfsHop(o, src, dst, ttl)
				got, gotOK := o.nextHop(src, dst, ttl)
				if gotOK != wantOK || (gotOK && got != want) {
					t.Fatalf("%s: src=%d dst=%d ttl=%d: cache says (%d, %v), BFS says (%d, %v)",
						name, src, dst, ttl, got, gotOK, want, wantOK)
				}
			}
		}
	}
}

// referenceField is the exhausted distance field of dst, by a BFS of the
// test's own over the live neighbor lists: what a tree's labels are held to.
func referenceField(net *netstack.Network, dst int) []uint16 {
	dist := make([]uint16, net.N())
	for i := range dist {
		dist[i] = noRoute
	}
	dist[dst] = 0
	for queue := []int{dst}; len(queue) > 0; queue = queue[1:] {
		for _, w := range net.Neighbors(queue[0]) {
			if dist[w] == noRoute {
				dist[w] = dist[queue[0]] + 1
				queue = append(queue, w)
			}
		}
	}
	return dist
}

// checkLabels requires every distance dst's tree has labelled so far to be
// the exhausted field's; full additionally requires nothing to be missing.
func checkLabels(t *testing.T, name string, net *netstack.Network, tr *routeTree, full bool) {
	t.Helper()
	want := referenceField(net, tr.dst)
	for v, d := range tr.dist {
		if d != want[v] && (full || d != noRoute) {
			t.Fatalf("%s: tree %d dist[%d] = %d, exhausted field has %d", name, tr.dst, v, d, want[v])
		}
	}
}

// exhaustTree makes dst's tree valid and grows it until no node that has a
// route is unlabelled.
func exhaustTree(o *Oracle, dst int) *routeTree {
	o.nextHop((dst+1)%o.net.N(), dst, 0)
	tr := o.cache.trees[dst]
	for v := range tr.dist {
		if tr.dist[v] == noRoute {
			o.cache.extend(tr, v, 0, nil)
		}
	}
	return tr
}

// cacheWorlds are the random static topologies (seed 7 + index) the cache is
// held to the BFS on: dense, sparse, and one that is disconnected.
var cacheWorlds = []struct {
	n    int
	side float64
}{{40, 900}, {120, 1100}, {200, 3200}}

// TestRouteCacheScopedMatchesBFS pins the first-hop lemma (DESIGN.md §15):
// on random static topologies — dense, sparse and disconnected — the cache
// answers every query exactly as the bounded forward BFS does, hop for hop,
// and keeps doing so while random nodes fail and come back.
func TestRouteCacheScopedMatchesBFS(t *testing.T) {
	for wi, w := range cacheWorlds {
		rng := rand.New(rand.NewSource(int64(7 + wi)))
		_, net, o := oracleWorld(geom.UniformPoints(rng, w.n, w.side), w.side)
		if o.cache == nil {
			t.Fatal("NewOracle put no cache on a static exact stack")
		}
		if wi == 2 {
			reach := 0
			for dst := 1; dst < w.n; dst++ {
				if o.HasRoute(0, dst) {
					reach++
				}
			}
			if reach == w.n-1 {
				t.Fatal("topology meant to be disconnected is connected")
			}
		}
		name := fmt.Sprintf("n=%d", w.n)
		checkAgainstBFS(t, name, net, o)
		var down []int
		for round := 0; round < 2; round++ {
			for k := 0; k < w.n/8; k++ {
				id := rng.Intn(w.n)
				if net.Alive(id) {
					net.Fail(id)
					down = append(down, id)
				}
			}
			checkAgainstBFS(t, fmt.Sprintf("%s after fails (round %d)", name, round), net, o)
			for _, id := range down[:len(down)/2] {
				net.Revive(id)
			}
			down = down[len(down)/2:]
			checkAgainstBFS(t, fmt.Sprintf("%s after revives (round %d)", name, round), net, o)
		}
	}
}

// TestLazyTreeMatchesExhaustedField drives trees that grow only as far as
// they are asked: on the cacheWorlds topologies, random
// queries in random order — ttl 0…6, sources in another component, dead
// destinations, a Fail/Revive version bump mid-sequence — each answered as the
// forward BFS of oracle.go answers it and as a second cache whose tree was
// grown to exhaustion first does. Unreachable must mean exhausted, never "not
// reached yet": an unbounded no-route answer leaves the frontier empty.
func TestLazyTreeMatchesExhaustedField(t *testing.T) {
	for wi, w := range cacheWorlds {
		rng := rand.New(rand.NewSource(int64(7 + wi)))
		_, net, lazy := oracleWorld(geom.UniformPoints(rng, w.n, w.side), w.side)
		full := &Oracle{net: net, engine: net.Engine()}
		full.EnableRouteCache(RouteCacheConfig{})
		for k := 0; k < w.n/10; k++ {
			net.Fail(rng.Intn(w.n))
		}
		partial := 0
		for q := 0; q < 3000; q++ {
			if q == 1500 {
				id := rng.Intn(w.n)
				net.Fail(id)
				net.Revive(id)
			}
			src, dst, ttl := rng.Intn(w.n), rng.Intn(w.n), rng.Intn(7)
			if !net.Alive(src) || src == dst {
				continue
			}
			name := fmt.Sprintf("n=%d query %d (%d→%d ttl %d)", w.n, q, src, dst, ttl)
			got, ok := lazy.nextHop(src, dst, ttl)
			want, wantOK := bfsHop(lazy, src, dst, ttl)
			if ok != wantOK || (ok && got != want) {
				t.Fatalf("%s: lazy tree says (%d, %v), BFS says (%d, %v)", name, got, ok, want, wantOK)
			}
			if !net.Alive(dst) {
				continue
			}
			checkLabels(t, name+", exhausted", net, exhaustTree(full, dst), true)
			if hop, fullOK := full.nextHop(src, dst, ttl); fullOK != ok || (ok && hop != got) {
				t.Fatalf("%s: lazy tree says (%d, %v), exhausted tree says (%d, %v)", name, got, ok, hop, fullOK)
			}
			tr := lazy.cache.trees[dst]
			checkLabels(t, name, net, tr, false)
			if len(tr.frontier) > 0 {
				partial++
				if !ok && ttl == 0 {
					t.Fatalf("%s: unbounded query found no route with %d nodes still on the frontier", name, len(tr.frontier))
				}
			}
		}
		if partial == 0 {
			t.Fatalf("n=%d: no query was answered from a partly grown tree", w.n)
		}
	}
}

// labelled is the set of nodes tr's field has reached so far.
func labelled(tr *routeTree) []bool {
	in := make([]bool, len(tr.dist))
	for v, d := range tr.dist {
		in[v] = d != noRoute
	}
	return in
}

// ballTo is what a whole tree prefetched toward origin labels: a BFS of the
// test's own from dst over the live lists, expanding whole nodes in queue
// order until origin is labelled or the component runs out.
func ballTo(net *netstack.Network, dst, origin int) []bool {
	in := make([]bool, net.N())
	in[dst] = true
	for queue := []int{dst}; len(queue) > 0 && !in[origin]; queue = queue[1:] {
		for _, w := range net.Neighbors(queue[0]) {
			if !in[w] {
				in[w] = true
				queue = append(queue, w)
			}
		}
	}
	return in
}

// TestPrefetchLensIsTheGeodesicSet holds the prefetched member trees of a
// symmetric stack to the lens's definition and to the BFS, on the cacheWorlds
// topologies over random origins and fan-outs (the origin among the members,
// dead members, members in another component, a Fail/Revive bump between
// rounds): a member the origin reaches is labelled at exactly the nodes v with
// d(o,v)+d(v,m) = d(o,m) — every one of them, or a packet would find the path
// pruned; no other, or nothing was saved — with the exhausted field's
// distances; walking origin→member asks the BFS's hop at every step and never
// leaves the lens; and every other asker — first scoped queries (ttl 1…6) on
// still-restricted trees, then, with the same members prefetched again from a
// second origin, every src × dst × ttl 0…6 — gets the forward BFS's answer.
func TestPrefetchLensIsTheGeodesicSet(t *testing.T) {
	for wi, w := range cacheWorlds {
		rng := rand.New(rand.NewSource(int64(21 + wi)))
		_, net, o := oracleWorld(geom.UniformPoints(rng, w.n, w.side), w.side)
		for k := 0; k < w.n/10; k++ {
			net.Fail(rng.Intn(w.n))
		}
		lenses, whole := 0, 0
		for round := 0; round < 8; round++ {
			id := net.RandomAliveID(rng) // every round starts from stale trees
			net.Fail(id)
			if round%2 == 0 {
				net.Revive(id)
			}
			origin := net.RandomAliveID(rng)
			dsts := []int{origin}
			for k := 2 + rng.Intn(w.n/4); k > 0; k-- {
				dsts = append(dsts, rng.Intn(w.n))
			}
			name := fmt.Sprintf("n=%d round %d origin %d", w.n, round, origin)
			o.PrefetchRoutes(origin, dsts)
			fromOrigin := referenceField(net, origin)
			if ot := o.cache.trees[origin]; ot == nil || ot.lens {
				t.Fatalf("%s: the origin's own tree is missing or restricted", name)
			}
			for _, m := range dsts[1:] {
				tr := o.cache.trees[m]
				if !net.Alive(m) || m == origin {
					continue
				}
				if tr == nil || tr.version != net.NeighborVersion() {
					t.Fatalf("%s: member %d has no valid tree", name, m)
				}
				toMember := referenceField(net, m)
				checkLabels(t, name, net, tr, false)
				if fromOrigin[m] == noRoute {
					if tr.lens || len(tr.frontier) > 0 {
						t.Fatalf("%s: member %d in another component: lens=%v, %d on the frontier", name, m, tr.lens, len(tr.frontier))
					}
					whole++
					continue
				}
				if !tr.lens {
					t.Fatalf("%s: member %d is reachable but its tree is whole", name, m)
				}
				lenses++
				for v, in := range labelled(tr) {
					if on := int(fromOrigin[v])+int(toMember[v]) == int(fromOrigin[m]); in != on {
						t.Fatalf("%s: member %d: node %d labelled=%v, on a shortest path=%v", name, m, v, in, on)
					}
				}
				for v := origin; v != m; {
					hop, ok := o.nextHop(v, m, 0)
					if want, wantOK := bfsHop(o, v, m, 0); !ok || !wantOK || hop != want {
						t.Fatalf("%s: on the way to %d at %d: lens says (%d, %v), BFS (%d, %v)", name, m, v, hop, ok, want, wantOK)
					}
					v = hop
				}
				if !tr.lens {
					t.Fatalf("%s: the packet's own queries restarted the lens of %d", name, m)
				}
			}
			for q := 0; q < 40*len(dsts); q++ {
				src, dst, ttl := net.RandomAliveID(rng), dsts[rng.Intn(len(dsts))], 1+rng.Intn(6)
				got, ok := o.nextHop(src, dst, ttl)
				if want, wantOK := bfsHop(o, src, dst, ttl); ok != wantOK || (ok && got != want) {
					t.Fatalf("%s: scoped %d→%d ttl %d: cache (%d, %v), BFS (%d, %v)", name, src, dst, ttl, got, ok, want, wantOK)
				}
			}
			o.PrefetchRoutes(net.RandomAliveID(rng), dsts)
			if round%2 == 1 {
				checkAgainstBFS(t, name+", second origin", net, o)
			}
		}
		if lenses == 0 || (wi == 2 && whole == 0) {
			t.Fatalf("n=%d: %d lenses and %d other-component members checked", w.n, lenses, whole)
		}
	}
}

// TestLensLabelsATenthOfTheBall is the point of the lens as a number: at the
// scale posture (n = 10 000, a fan-out of 48 from one origin) the member trees
// label less than a tenth of what whole trees grown out to the origin would.
func TestLensLabelsATenthOfTheBall(t *testing.T) {
	const n, fanout = 10000, 48
	rng := rand.New(rand.NewSource(17))
	side := geom.AreaSide(n, 200, 10)
	_, net, o := oracleWorld(geom.UniformPoints(rng, n, side), side)
	origin, dsts := rng.Intn(n), rng.Perm(n)[:fanout]
	o.PrefetchRoutes(origin, dsts)
	lens, ball := 0, 0
	for _, m := range dsts {
		if m == origin {
			continue
		}
		lens += o.RouteTreeNodes(m)
		for _, in := range ballTo(net, m, origin) {
			if in {
				ball++
			}
		}
	}
	t.Logf("48 member trees at n=%d: %d nodes labelled as lenses, %d as balls", n, lens, ball)
	if lens == 0 || 10*lens >= ball {
		t.Fatalf("lenses label %d nodes, balls %d: want under a tenth", lens, ball)
	}
}

// TestNewOracleSelectsRouter: the cache goes on by itself exactly where it
// pays (geometric neighbors, nothing moves); EnableRouteCache puts it on a
// mobile stack, calling it again reconfigures the one cache, and on heartbeat
// lists it panics.
func TestNewOracleSelectsRouter(t *testing.T) {
	const n, side = 30, 600.0
	stacks := []struct {
		name   string
		cfg    func(e *sim.Engine) netstack.Config
		cached bool
	}{
		{"exact+static", func(*sim.Engine) netstack.Config {
			return netstack.Config{N: n, Side: side, Stack: netstack.StackIdeal}
		}, true},
		{"exact+waypoint", func(e *sim.Engine) netstack.Config {
			return netstack.Config{N: n, Side: side, Stack: netstack.StackIdeal,
				Mobility: mobility.NewWaypoint(e.NewStream(), n, mobility.WaypointConfig{MinSpeed: 1, MaxSpeed: 2, Side: side}, nil)}
		}, false},
		{"heartbeat", func(*sim.Engine) netstack.Config {
			return netstack.Config{N: n, Side: side, Stack: netstack.StackIdeal, Neighbors: netstack.NeighborsHeartbeat}
		}, false},
	}
	for _, s := range stacks {
		e := sim.NewEngine(1)
		net := netstack.New(e, s.cfg(e))
		o := NewOracle(net)
		if got := o.cache != nil; got != s.cached {
			t.Fatalf("%s: NewOracle installed cache = %v, want %v", s.name, got, s.cached)
		}
		if net.Config().Neighbors == netstack.NeighborsHeartbeat {
			if !enablePanics(o) {
				t.Fatalf("%s: EnableRouteCache accepted heartbeat lists", s.name)
			}
			continue
		}
		o.EnableRouteCache(RouteCacheConfig{})
		c := o.cache
		if c == nil || c.maxTrees != 1024 {
			t.Fatalf("%s: EnableRouteCache left cache %+v", s.name, c)
		}
		o.HasRoute(0, 1)
		o.EnableRouteCache(RouteCacheConfig{MaxTrees: 5})
		if o.cache != c || c.maxTrees != 5 || c.trees[1] == nil {
			t.Fatalf("%s: second EnableRouteCache did not reconfigure the cache in place", s.name)
		}
	}
}

// enablePanics reports whether EnableRouteCache panics on o's network.
func enablePanics(o *Oracle) (panicked bool) {
	defer func() { panicked = recover() != nil }()
	o.EnableRouteCache(RouteCacheConfig{})
	return false
}

// TestRouteCacheRefusesHeartbeatLists: heartbeat lists change between
// beacons without advancing the version a tree is checked against, and are
// not symmetric, so a cache on them would answer from stale or wrong fields;
// EnableRouteCache refuses them, before and after the first beacons.
func TestRouteCacheRefusesHeartbeatLists(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	const n, side = 40, 700.0
	e := sim.NewEngine(1)
	net := netstack.New(e, netstack.Config{
		N: n, Side: side, Mobility: mobility.NewStatic(geom.UniformPoints(rng, n, side)),
		Stack: netstack.StackIdeal, Neighbors: netstack.NeighborsHeartbeat,
	})
	o := NewOracle(net)
	if !enablePanics(o) {
		t.Fatal("EnableRouteCache accepted heartbeat lists before the first beacon")
	}
	e.Run(25)
	if !enablePanics(o) || o.cache != nil {
		t.Fatal("EnableRouteCache accepted heartbeat lists once beacons ran")
	}
}

// TestOracleNextHopHitAllocFree: a query answered from a warm tree allocates
// nothing.
func TestOracleNextHopHitAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const n, side = 80, 900.0
	_, _, o := oracleWorld(geom.UniformPoints(rng, n, side), side)
	o.nextHop(0, n-1, 0)
	src := 0
	if avg := testing.AllocsPerRun(200, func() {
		o.nextHop(src, n-1, 0)
		o.nextHop(src, n-1, 4)
		src = (src + 1) % (n - 1)
	}); avg > 0 {
		t.Fatalf("warm-tree query allocates %.1f objects", avg)
	}
}

// TestRouteTreeDepthGuard: distances live in 16 bits, so a path that would
// need the sentinel value must stop the build, not wrap around. The topology
// is one snake-shaped chain 0—1—…—65535: every node is within 65534 hops of
// node 1, and the far end is one hop too many from node 0.
func TestRouteTreeDepthGuard(t *testing.T) {
	const step, perRow = 180.0, 250 // diagonal 254 m > the 200 m range
	pts := make([]geom.Point, 0, noRoute+1+perRow+2)
	for row := 0; len(pts) <= noRoute; row++ {
		y := float64(row) * 3 * step
		for k := 0; k < perRow; k++ {
			x := float64(k) * step
			if row%2 == 1 {
				x = float64(perRow-1-k) * step
			}
			pts = append(pts, geom.Point{X: x, Y: y})
		}
		// Two connectors up the side the row ended on.
		x := pts[len(pts)-1].X
		pts = append(pts, geom.Point{X: x, Y: y + step}, geom.Point{X: x, Y: y + 2*step})
	}
	pts = pts[:noRoute+1]
	_, _, o := oracleWorld(pts, pts[noRoute].Y+step)

	if hop, ok := o.nextHop(noRoute, 1, 0); !ok || hop != noRoute-1 {
		t.Fatalf("chain is broken: nextHop(%d, 1) = %d, %v", noRoute, hop, ok)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("build accepted a 65535-hop path")
		}
	}()
	o.nextHop(noRoute, 0, 0)
}

// TestRouteCacheStaleTreesRebuiltInPlace: a version bump must not grow the
// cache. Rebuilds — serial misses and prefetches alike — reuse the stale
// tree's storage and its slot in the eviction order, so after 1000 bumps the
// cache holds at most one tree, one order entry and one buffer per
// destination (the parent leaked one n-sized buffer per re-queried
// destination per bump below the MaxTrees cap).
func TestRouteCacheStaleTreesRebuiltInPlace(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const n, side = 40, 900.0
	_, net, o := oracleWorld(geom.UniformPoints(rng, n, side), side)
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	c := o.cache
	frontierCap := func() (sum int) {
		for _, tr := range c.trees {
			sum += cap(tr.frontier)
		}
		return sum
	}
	settled := 0
	for bump := 0; bump < 1000; bump++ {
		net.Fail(5)
		net.Revive(5)
		if bump%2 == 0 {
			o.PrefetchRoutes(0, all)
		}
		for dst := 0; dst < n; dst++ {
			o.nextHop((dst+1)%n, dst, 0)
		}
		if bump == 9 {
			settled = frontierCap()
		}
	}
	if got := frontierCap(); settled == 0 || got != settled {
		t.Fatalf("frontier buffers hold %d entries after 1000 bumps, %d after 10: a restarted tree must reuse its frontier", got, settled)
	}
	live := 0
	for _, tr := range c.trees {
		if tr != nil {
			live++
		}
	}
	// No tree is evicted below the MaxTrees cap, so nothing was popped from
	// order and its array holds exactly its Len() entries.
	if c.order.Len() > n || live+c.spare.Len() > n || live != c.order.Len() {
		t.Fatalf("after 1000 version bumps: order=%d trees=%d free=%d, want ≤ %d each", c.order.Len(), live, c.spare.Len(), n)
	}
	checkAgainstBFS(t, "after 1000 bumps", net, o)
}

// TestRouteCacheEvictionUnderPrefetch drives a cache far smaller than the
// destination set through prefetches that mix in-place rebuilds, new trees
// and evictions in one phase: every tree stays owned by exactly one of
// trees/spare, the cap holds, and answers still equal the BFS's.
func TestRouteCacheEvictionUnderPrefetch(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	const n, side, maxTrees = 60, 1000.0, 8
	_, net, o := oracleWorld(geom.UniformPoints(rng, n, side), side)
	o.EnableRouteCache(RouteCacheConfig{MaxTrees: maxTrees})
	c := o.cache
	frontierCap := map[*routeTree]int{} // every tree ever seen → its frontier buffer
	for round := 0; round < 200; round++ {
		if round%3 == 0 {
			net.Fail(7)
			net.Revive(7)
		}
		dsts := make([]int, 2+rng.Intn(2*maxTrees))
		for i := range dsts {
			dsts[i] = rng.Intn(n)
		}
		o.PrefetchRoutes(0, dsts)
		owner := map[*routeTree]int{}
		for _, tr := range c.order.Items() {
			owner[tr]++
			if c.trees[tr.dst] != tr {
				t.Fatalf("round %d: order holds a tree for %d that trees does not", round, tr.dst)
			}
		}
		// The spare trees, popped and put back in their order.
		spare := make([]*routeTree, c.spare.Len())
		for i := range spare {
			spare[i] = c.spare.Get()
			owner[spare[i]]++
		}
		for i := len(spare) - 1; i >= 0; i-- {
			c.spare.Put(spare[i])
		}
		for tr, k := range owner {
			if k != 1 {
				t.Fatalf("round %d: tree for %d owned %d times", round, tr.dst, k)
			}
			if cap(tr.frontier) < frontierCap[tr] {
				t.Fatalf("round %d: recycled tree for %d dropped its frontier buffer (%d → %d)", round, tr.dst, frontierCap[tr], cap(tr.frontier))
			}
			frontierCap[tr] = cap(tr.frontier)
		}
		if len(frontierCap) > 3*maxTrees {
			t.Fatalf("round %d: %d trees allocated for a cap of %d: evicted trees are not recycled", round, len(frontierCap), maxTrees)
		}
		if live := c.order.Len(); live > maxTrees {
			t.Fatalf("round %d: %d live trees past the cap of %d", round, live, maxTrees)
		}
		src, dst := rng.Intn(n), dsts[0]
		want, wantOK := bfsHop(o, src, dst, 0)
		if got, ok := o.nextHop(src, dst, 0); ok != wantOK || (ok && got != want) {
			t.Fatalf("round %d: %d→%d: cache (%d, %v), BFS (%d, %v)", round, src, dst, got, ok, want, wantOK)
		}
	}
}

// TestOracleRouteCacheScopedDelivery re-runs the scoped/unreachable oracle
// scenario with the cache enabled: TTL-bounded sends must still fail beyond
// their scope, succeed within it, and unreachable destinations must drop.
func TestOracleRouteCacheScopedDelivery(t *testing.T) {
	pts := []geom.Point{{X: 0, Y: 0}, {X: 150, Y: 0}, {X: 300, Y: 0}, {X: 450, Y: 0}, {X: 5000, Y: 0}}
	e, net, o := oracleWorld(pts, 6000)
	s := &sink{}
	net.Node(3).Register(testProto, s)
	var beyond, within, far *bool
	e.Schedule(0, func() {
		o.SendScoped(0, 3, innerPkt(0, 3), 2, func(ok bool) { beyond = &ok }) // 3 hops away
		o.Send(0, 4, innerPkt(0, 4), func(ok bool) { far = &ok })             // disconnected
	})
	e.Schedule(1, func() {
		o.SendScoped(0, 3, innerPkt(0, 3), 3, func(ok bool) { within = &ok }) // exactly in scope
	})
	e.Run(5)
	if beyond == nil || *beyond {
		t.Fatal("scoped send beyond TTL should fail with the cache on")
	}
	if far == nil || *far {
		t.Fatal("send to a disconnected node should fail with the cache on")
	}
	if within == nil || !*within {
		t.Fatal("scoped send within TTL should hand off with the cache on")
	}
	if len(s.pkts) != 1 || s.pkts[0].Hops != 3 {
		t.Fatalf("cached scoped delivery: %d pkts", len(s.pkts))
	}
	if o.DataDrops == 0 {
		t.Fatal("drops not counted")
	}
}

// TestPrefetchTreesMatchSerialMiss pins PrefetchRoutes against the miss path
// by what a caller can observe: after a prefetch every destination has a tree
// that already covers the origin, every distance it has labelled is the
// exhausted field's, and nextHop answers every alive src exactly as an oracle
// that only ever missed does.
func TestPrefetchTreesMatchSerialMiss(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const n, side, origin = 60, 1000.0, 0
	pts := geom.UniformPoints(rng, n, side)
	dsts := make([]int, 0, n+2)
	for i := range pts {
		dsts = append(dsts, i)
	}
	dsts = append(dsts, 3, 3) // duplicates are started once

	_, _, serial := oracleWorld(pts, side)
	check := func(name string, net *netstack.Network, o *Oracle) {
		t.Helper()
		if got := o.cache.order.Len(); got != n {
			t.Fatalf("%s: %d trees installed, want %d", name, got, n)
		}
		for dst := 0; dst < n; dst++ {
			tr := o.cache.trees[dst]
			if tr.dist[origin] == noRoute && len(tr.frontier) > 0 {
				t.Fatalf("%s: tree %d was not grown to the origin", name, dst)
			}
			checkLabels(t, name, net, tr, false)
		}
		for dst := 0; dst < n; dst++ {
			for src := 0; src < n; src++ {
				want, wantOK := serial.nextHop(src, dst, 0)
				if got, ok := o.nextHop(src, dst, 0); ok != wantOK || got != want {
					t.Fatalf("%s: %d→%d: prefetched tree says (%d, %v), serial miss path (%d, %v)", name, src, dst, got, ok, want, wantOK)
				}
			}
			checkLabels(t, name+", after the queries", net, o.cache.trees[dst], false)
		}
	}
	_, net, o := oracleWorld(pts, side)
	o.PrefetchRoutes(origin, dsts)
	check("prefetch", net, o)
}
