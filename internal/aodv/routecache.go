package aodv

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

// noRoute is the dist value of a node with no path to the destination;
// real distances stay below it (build panics rather than wrap).
const noRoute = 0xFFFF

// routeTree is the cached hop-distance field of one destination: dist[v] is
// the length of a shortest path from v to dst over the neighbor lists the
// tree was built from (DESIGN.md §15).
type routeTree struct {
	dst     int
	dist    []uint16
	built   float64
	version uint64
}

// routeCache answers next-hop queries — unbounded and TTL-scoped — from
// per-destination distance fields. A tree is valid while the neighbor-graph
// version is unchanged and its age is within TTL; an invalid tree is rebuilt
// in place and a missing one built fresh, serially on demand or in bulk — one
// sharded parallel phase — by PrefetchRoutes.
type routeCache struct {
	o        *Oracle
	ttl      float64
	maxTrees int

	trees []*routeTree // by destination; nil = none
	// order holds every tree of trees exactly once, in installation order
	// (head is the logical front): a rebuild keeps the tree's place, eviction
	// pops the front into the free list.
	order []*routeTree
	head  int
	free  []*routeTree

	// Prefetch scratch. pending holds the trees the current parallel phase
	// builds, one per item; seen is a stamp array deduplicating the dst list.
	pending   []*routeTree
	seen      []int32
	seenStamp int32

	// Per-shard BFS queue, indexed by the ShardedEval shard index (one
	// goroutine owns a shard index for the length of a phase). prefetch
	// grows it to the engine's width; the serial miss path uses slot 0.
	queues [][]int32

	evalFn func(shard, i int)
}

// EnableRouteCache answers the oracle's next-hop queries from cached
// per-destination distance fields and makes PrefetchRoutes build missing ones
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
			o:      o,
			trees:  make([]*routeTree, n),
			seen:   make([]int32, n),
			queues: make([][]int32, 1),
		}
		c.evalFn = c.eval
		o.cache = c
	}
	o.cache.ttl, o.cache.maxTrees = cfg.TTLSecs, cfg.MaxTrees
}

// PrefetchRoutes implements RoutePrefetcher: ensure a valid tree exists for
// every alive destination in dsts, building all missing ones in one
// ShardedEval phase over the frozen neighbor lists. A no-op on an oracle
// without the cache.
func (o *Oracle) PrefetchRoutes(origin int, dsts []int) {
	if o.cache != nil {
		o.cache.prefetch(dsts)
	}
}

func (c *routeCache) prefetch(dsts []int) {
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
	// commit in ascending item order.
	c.pending = c.pending[:0]
	for _, dst := range dsts {
		if c.seen[dst] == c.seenStamp {
			continue
		}
		c.seen[dst] = c.seenStamp
		if !net.Alive(dst) {
			continue
		}
		if t := c.trees[dst]; t == nil || !c.valid(t, now, ver) {
			c.pending = append(c.pending, c.claim(dst, now, ver))
		}
	}
	if len(c.pending) == 0 {
		return
	}
	for len(c.queues) < c.o.engine.Shards() {
		c.queues = append(c.queues, nil)
	}
	c.o.engine.ShardedEval(len(c.pending), c.evalFn)
}

// eval builds item i's tree on its shard's scratch. Reads frozen neighbor
// lists and writes only the item's own tree plus the shard's queue (items of
// one shard run sequentially on one goroutine).
func (c *routeCache) eval(shard, i int) {
	t := c.pending[i]
	c.build(t, shard)
	if c.trees[t.dst] != t {
		c.o.engine.Stage(i, func() { c.install(t) })
	}
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

// build fills t.dist by BFS from t.dst over the frozen neighbor lists; the
// field doubles as the visited set.
func (c *routeCache) build(t *routeTree, shard int) {
	dist := t.dist
	for i := range dist {
		dist[i] = noRoute //pqlint:parshared(per-item tree storage: t is this item's claimed tree, touched by no other worker)
	}
	dist[t.dst] = 0 //pqlint:parshared(per-item tree storage)
	queue := append(c.queues[shard][:0], int32(t.dst))
	for head := 0; head < len(queue); head++ {
		u := int(queue[head])
		d := dist[u] + 1
		for _, w := range c.o.net.FrozenNeighbors(u) {
			if dist[w] != noRoute {
				continue
			}
			if d == noRoute {
				panic("aodv: route tree deeper than 65534 hops")
			}
			dist[w] = d //pqlint:parshared(per-item tree storage)
			queue = append(queue, int32(w))
		}
	}
	c.queues[shard] = queue //pqlint:parshared(per-shard BFS scratch; one goroutine owns a shard index per phase)
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

// nextHop answers a query from the destination's distance field, building it
// serially on a miss: the first (lowest-id) neighbor of src that is one hop
// closer to dst, provided dst is within maxTTL hops (0 = unbounded). On a
// symmetric graph that is exactly the forward BFS's answer — its queue is
// ordered by first hop, so it reaches any node first through the lowest-id
// neighbor of src that lies on a shortest path — at O(degree) per query; the
// tree build is the only graph-sized cost, amortized across all queries to
// dst. A dead destination is unreachable, as the BFS reports (a dead node
// appears in no live neighbor list).
//
// The scan reads the frozen lists, which are what a valid tree was built
// from; a live read could rebuild a heartbeat list, advance the version and
// invalidate every tree. On an asymmetric heartbeat graph src may list no
// closer neighbor: no route.
func (c *routeCache) nextHop(src, dst, maxTTL int) (int, bool) {
	net := c.o.net
	if !net.Alive(dst) {
		return 0, false
	}
	now, ver := c.o.engine.Now(), net.NeighborVersion()
	t := c.trees[dst]
	if t == nil || !c.valid(t, now, ver) {
		// Serial miss path: same snapshot discipline as prefetch — prepare
		// (which may advance the version), then build over frozen lists.
		net.PrepareNeighbors()
		t = c.claim(dst, now, net.NeighborVersion())
		c.build(t, 0)
		if c.trees[dst] != t {
			c.install(t)
		}
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
