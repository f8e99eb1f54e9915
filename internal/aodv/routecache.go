package aodv

import "probquorum/internal/netstack"

// RoutePrefetcher is implemented by routers that can bulk-prepare routing
// state for an imminent fan-out: the quorum layer calls it with the member
// set it is about to message, so the router can build all missing routes in
// one sharded parallel phase instead of serially on first use. Routers
// without a cache implement it as a no-op.
type RoutePrefetcher interface {
	PrefetchRoutes(origin int, dsts []int)
}

var _ RoutePrefetcher = (*Oracle)(nil)

// RouteCacheConfig configures the oracle route-tree cache.
type RouteCacheConfig struct {
	// TTLSecs bounds how long a tree may serve queries after it was built.
	// The heartbeat provider observes expiry lazily (a neighbor's
	// disappearance bumps the graph version only when some list is next
	// rebuilt), so a time bound is what guarantees trees track the observable
	// graph; one beacon interval is a natural choice. <= 0 means no time
	// bound — correct for the oracle-neighbor provider, whose version counter
	// captures every possible change exactly.
	TTLSecs float64
	// MaxTrees caps live trees; the oldest installed tree is evicted first
	// (deterministic insertion order). 0 defaults to 1024.
	MaxTrees int
}

// noRoute is the dist value of a node the field has not labelled: one with
// no path to the destination or, while the tree's frontier is non-empty, one
// the BFS has not reached yet. Real distances stay below it (extend panics
// rather than wrap).
const noRoute = 0xFFFF

// routeTree is the cached hop-distance field of one destination, grown on
// demand: dist[v] is the length of a shortest path from v to dst over the
// neighbor lists of the tree's version, for every v the BFS from dst has
// reached so far (DESIGN.md §15).
type routeTree struct {
	dst  int
	dist []uint16
	// frontier is where the BFS stopped: the labelled nodes not yet expanded,
	// in queue order — the queue's unexpanded suffix only, a level or two of
	// the field, never the whole queue. Empty means the component is
	// exhausted and every noRoute is final.
	frontier []int32
	built    float64
	version  uint64
	// lens marks a field PrefetchRoutes grew only over the shortest paths
	// between dst and one origin. It cannot tell "off those paths" from
	// "unreachable", so a noRoute read on it restarts it whole.
	lens bool
}

// routeCache answers next-hop queries — unbounded and TTL-scoped — from
// per-destination distance fields. A tree is valid while the neighbor-graph
// version is unchanged and its age is within TTL; an invalid tree is restarted
// in place and a missing one started fresh, and either grows only as far as
// its askers are from the destination: serially on demand, or in bulk — one
// sharded parallel phase, out to the origin of the fan-out and, where the
// lists are symmetric, over the origin–destination geodesics only — by
// PrefetchRoutes.
type routeCache struct {
	o        *Oracle
	ttl      float64
	maxTrees int
	// symmetric: w lists v iff v lists w (the geometric provider), so
	// d(o,w)+d(w,m) = d(o,m) picks out the shortest o–m paths and prefetch may
	// restrict member trees to them. Heartbeat lists are not.
	symmetric bool

	trees []*routeTree // by destination; nil = none
	// order holds every tree of trees exactly once, in installation order
	// (head is the logical front): a rebuild keeps the tree's place, eviction
	// pops the front into the free list.
	order []*routeTree
	head  int
	free  []*routeTree

	// Prefetch scratch. pending holds the trees the current parallel phase
	// starts and extends to origin, one per item; originDist is the origin's
	// own field the items restrict themselves by — set for the length of the
	// phase only, the barrier's installs may evict and recycle that tree; seen
	// is a stamp array deduplicating the dst list.
	pending    []*routeTree
	origin     int
	originDist []uint16
	seen       []int32
	seenStamp  int32

	// Per-shard BFS queue, indexed by the ShardedEval shard index (one
	// goroutine owns a shard index for the length of a phase). prefetch
	// grows it to the engine's width; the serial miss path uses slot 0.
	queues [][]int32

	evalFn func(shard, i int)
}

// EnableRouteCache answers the oracle's next-hop queries from cached
// per-destination distance fields and makes PrefetchRoutes start missing ones
// in a sharded parallel phase. NewOracle already does this on the stacks
// where the cache is exact and pays; call it to put the same cache on another
// stack (a heartbeat stack, with a TTL) or to set non-default bounds — on a
// stack that has the cache it only changes the bounds.
func (o *Oracle) EnableRouteCache(cfg RouteCacheConfig) {
	if cfg.MaxTrees <= 0 {
		cfg.MaxTrees = 1024
	}
	if o.cache == nil {
		n := o.net.N()
		c := &routeCache{
			o:         o,
			symmetric: o.net.Config().Neighbors == netstack.NeighborsOracle,
			trees:     make([]*routeTree, n),
			seen:      make([]int32, n),
			queues:    make([][]int32, 1),
		}
		c.evalFn = c.eval
		o.cache = c
	}
	o.cache.ttl, o.cache.maxTrees = cfg.TTLSecs, cfg.MaxTrees
}

// PrefetchRoutes implements RoutePrefetcher: ensure a valid tree exists for
// every alive destination in dsts, starting all missing ones and growing
// them out to origin — the node about to send — in one ShardedEval phase over
// the frozen neighbor lists. On symmetric lists a member's tree labels only
// the nodes a packet from origin can ask from, the shortest origin–member
// paths, found with one field grown from origin first (DESIGN.md §15). A
// no-op on an oracle without the cache.
func (o *Oracle) PrefetchRoutes(origin int, dsts []int) {
	if o.cache != nil {
		o.cache.prefetch(origin, dsts)
	}
}

// RouteTreeNodes returns how many nodes dst's cached tree has labelled so
// far — what growing it has cost; 0 without a tree.
func (o *Oracle) RouteTreeNodes(dst int) (labelled int) {
	if o.cache == nil || o.cache.trees[dst] == nil {
		return 0
	}
	for _, d := range o.cache.trees[dst].dist {
		if d != noRoute {
			labelled++
		}
	}
	return labelled
}

func (c *routeCache) prefetch(origin int, dsts []int) {
	net := c.o.net
	net.PrepareNeighbors()
	now, ver := c.o.engine.Now(), net.NeighborVersion()
	if c.seenStamp == 1<<31-1 {
		for i := range c.seen {
			c.seen[i] = 0
		}
		c.seenStamp = 0
	}
	c.seenStamp++
	// Claim trees serially (the free list is shared state), then fill them in
	// parallel; new trees stage their install for the barrier, where they
	// commit in ascending item order. The origin's tree is made valid before
	// the first claim: installing it later could evict a stale tree already
	// claimed in place, which the barrier would then install a second time.
	var ot *routeTree
	c.pending = c.pending[:0]
	for _, dst := range dsts {
		if c.seen[dst] == c.seenStamp {
			continue
		}
		c.seen[dst] = c.seenStamp
		if t := c.trees[dst]; !net.Alive(dst) || t != nil && c.valid(t, now, ver) {
			continue
		}
		if ot == nil && c.symmetric && net.Alive(origin) {
			if ot = c.trees[origin]; ot == nil || !c.valid(ot, now, ver) {
				ot = c.miss(origin, now, ver)
			} else if ot.lens {
				c.start(ot, false)
			}
			if dst == origin {
				continue
			}
		}
		c.pending = append(c.pending, c.claim(dst, now, ver))
	}
	if len(c.pending) == 0 {
		return
	}
	if ot != nil {
		for _, t := range c.pending {
			c.extend(ot, t.dst, 0, 0, nil)
		}
		c.originDist = ot.dist
	}
	c.origin = origin
	for len(c.queues) < c.o.engine.Shards() {
		c.queues = append(c.queues, nil)
	}
	c.o.engine.ShardedEval(len(c.pending), c.evalFn)
	c.originDist = nil
}

// eval starts item i's tree and grows it to the phase's origin on its shard's
// scratch — as a lens when the origin's field reaches the destination, whole
// when there is no such field or the destination is in another component.
// Reads frozen neighbor lists and the origin's field, writes only the item's
// own tree plus the shard's queue (items of one shard run sequentially on one
// goroutine).
func (c *routeCache) eval(shard, i int) {
	t := c.pending[i]
	lens := c.originDist // the origin's tree is valid, so no item owns it: read-only until the barrier
	if lens != nil && lens[t.dst] == noRoute {
		lens = nil
	}
	c.start(t, lens != nil)
	c.extend(t, c.origin, 0, shard, lens)
	if c.trees[t.dst] != t {
		c.o.engine.Stage(i, func() { c.install(t) })
	}
}

// miss makes dst's tree valid as of (now, ver) on the serial path: restarted
// in place, or a new one installed.
func (c *routeCache) miss(dst int, now float64, ver uint64) *routeTree {
	t := c.claim(dst, now, ver)
	c.start(t, false)
	if c.trees[dst] != t {
		c.install(t)
	}
	return t
}

// claim returns the tree a miss on dst has to fill, stamped valid as of
// (now, ver): dst's stale tree, which keeps its storage and its place in the
// eviction order, or a tree off the free list that install must publish.
func (c *routeCache) claim(dst int, now float64, ver uint64) *routeTree {
	t := c.trees[dst]
	if t == nil {
		if k := len(c.free); k > 0 {
			t, c.free = c.free[k-1], c.free[:k-1]
		} else {
			t = &routeTree{dist: make([]uint16, len(c.trees))}
		}
		t.dst = dst
	}
	t.built, t.version = now, ver
	return t
}

// start resets t to the BFS's initial state: only dst labelled, only dst on
// the frontier; lens says whether what follows is restricted to one origin's
// geodesics.
func (c *routeCache) start(t *routeTree, lens bool) {
	t.lens = lens //pqlint:allow parsafe(per-item tree storage: t is this item's claimed tree, touched by no other worker)
	dist := t.dist
	dist[0] = noRoute
	for i := 1; i < len(dist); i *= 2 {
		copy(dist[i:], dist[:i]) // fill by doubling: memmove speed, not a store per node
	}
	dist[t.dst] = 0
	//pqlint:allow parsafe(per-item tree storage)
	t.frontier = append(t.frontier[:0], int32(t.dst)) //pqlint:allow noalloc(one element into the tree's own frontier: allocates for a new tree only)
}

// extend resumes t's BFS from dst over the frozen neighbor lists — the field
// doubles as the visited set — expanding whole nodes in queue order until src
// is labelled, every node within ttl hops of dst is (ttl > 0: a scoped query
// needs no more than that ball), or the component is exhausted. Levels
// complete in order, so a label, once written, is the full BFS's.
//
// A non-nil lens is the distance field of src — grown at least as far as dst,
// over symmetric lists — and restricts the BFS to the nodes on shortest
// src–dst paths: w at depth d is labelled only if lens[w]+d = lens[dst].
// Every shortest path from such a w to dst stays inside that set, so the
// depths are still the true distances and each labelled node's closer
// neighbors are all labelled too.
//
//pqlint:noalloc
func (c *routeCache) extend(t *routeTree, src, ttl, shard int, lens []uint16) {
	dist := t.dist
	// Nodes at depth limit and beyond stay unexpanded; no real depth reaches
	// noRoute, so an unbounded extension never stops on it.
	limit := uint16(noRoute)
	if 0 < ttl && ttl < noRoute {
		limit = uint16(ttl)
	}
	if dist[src] != noRoute || len(t.frontier) == 0 || dist[t.frontier[0]] >= limit {
		return
	}
	var want int // lens[dst], hoisted: the compiler cannot know lens and dist do not alias
	if lens != nil {
		want = int(lens[t.dst])
	}
	queue := append(c.queues[shard][:0], t.frontier...) //pqlint:allow noalloc(per-shard scratch grows to the largest component once, then is reused)
	head := 0
	for ; head < len(queue) && dist[src] == noRoute && dist[queue[head]] < limit; head++ {
		u := int(queue[head])
		d := dist[u] + 1
		for _, w := range c.o.net.FrozenNeighbors(u) {
			if dist[w] != noRoute || lens != nil && int(lens[w])+int(d) != want {
				continue
			}
			if d == noRoute {
				panic("aodv: route tree deeper than 65534 hops")
			}
			dist[w] = d
			queue = append(queue, int32(w))
		}
	}
	//pqlint:allow parsafe(per-item tree storage)
	t.frontier = append(t.frontier[:0], queue[head:]...) //pqlint:allow noalloc(grows to the widest frontier the tree has paused on, then is reused)
	c.queues[shard] = queue                              //pqlint:allow parsafe(per-shard BFS scratch; one goroutine owns a shard index per phase)
}

// install publishes a new tree, evicting the oldest ones past the cap. Runs
// serially (commit phase or the serial miss path).
func (c *routeCache) install(t *routeTree) {
	for len(c.order)-c.head >= c.maxTrees {
		old := c.order[c.head]
		c.order[c.head] = nil
		c.head++
		c.trees[old.dst] = nil
		c.free = append(c.free, old)
	}
	if c.head > len(c.order)/2 && c.head > 64 {
		c.order = append(c.order[:0], c.order[c.head:]...)
		c.head = 0
	}
	c.trees[t.dst] = t
	c.order = append(c.order, t)
}

func (c *routeCache) valid(t *routeTree, now float64, ver uint64) bool {
	return t.version == ver && (c.ttl <= 0 || now-t.built <= c.ttl)
}

// nextHop answers a query from the destination's distance field, starting it
// on a miss and growing it serially until it covers src: the first
// (lowest-id) neighbor of src that is one hop closer to dst, provided dst is
// within maxTTL hops (0 = unbounded). On a symmetric graph that is exactly the
// forward BFS's answer — its queue is ordered by first hop, so it reaches any
// node first through the lowest-id neighbor of src that lies on a shortest
// path — at O(degree) per query once src is labelled; growing the field is
// the only graph-sized cost, paid once per node across all queries to dst and
// only out to the farthest asker. A dead destination is unreachable, as the
// BFS reports (a dead node appears in no live neighbor list).
//
// Scan and extension read the frozen lists, which at an unchanged version are
// what the tree was started from; a live read could rebuild a heartbeat list,
// advance the version and invalidate every tree. On an asymmetric heartbeat
// graph src may list no closer neighbor: no route.
func (c *routeCache) nextHop(src, dst, maxTTL int) (int, bool) {
	net := c.o.net
	if !net.Alive(dst) {
		return 0, false
	}
	now, ver := c.o.engine.Now(), net.NeighborVersion()
	t := c.trees[dst]
	if t == nil || !c.valid(t, now, ver) {
		// Serial miss path: same snapshot discipline as prefetch — prepare
		// (which may advance the version), then grow over frozen lists.
		net.PrepareNeighbors()
		t = c.miss(dst, now, net.NeighborVersion()) //pqlint:allow noalloc(a tree is claimed or built once per destination and neighbor version, not per hop)
	}
	if t.dist[src] == noRoute {
		if t.lens {
			// src is off the lens or unreachable, and only the whole field can
			// say which. A second asker is also the evidence that the tree is
			// shared, so it stays whole.
			c.start(t, false)
		}
		c.extend(t, src, maxTTL, 0, nil)
	}
	d := t.dist[src]
	if d == noRoute || (maxTTL > 0 && int(d) > maxTTL) {
		return 0, false
	}
	for _, f := range net.FrozenNeighbors(src) {
		if t.dist[f] == d-1 {
			return f, true
		}
	}
	return 0, false
}
