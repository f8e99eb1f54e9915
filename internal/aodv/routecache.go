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

// routeTree is a cached shortest-path tree toward one destination:
// next[v] is v's first hop toward dst (-1 when v cannot reach dst). Built by
// a reverse BFS from dst treating the beacon graph as undirected — an
// idealization that matches the forward BFS exactly on geometric (symmetric)
// neighborhoods, which is the only regime the cache is enabled in
// (DESIGN.md §15).
type routeTree struct {
	dst     int
	next    []int32
	built   float64
	version uint64
}

// routeCache answers next-hop queries — unbounded and TTL-scoped — from
// per-destination trees.
// A tree is valid while the neighbor-graph version is unchanged and its age
// is within TTL; invalid or missing trees are rebuilt serially on demand, or
// in bulk — one sharded parallel phase — by PrefetchRoutes.
type routeCache struct {
	o        *Oracle
	ttl      float64
	maxTrees int

	trees map[int]*routeTree
	// order holds every installed tree exactly once, oldest first (head is
	// the logical front). Popping releases the tree to the free list; if it
	// is still the current tree for its destination it is also evicted from
	// the map. A replaced tree is therefore released when its order entry
	// pops, never earlier — each tree is released exactly once.
	order []*routeTree
	head  int
	free  [][]int32

	// Prefetch scratch. missing/pending are the per-item destination and
	// pre-assigned tree of the current parallel phase; seen is a stamp array
	// deduplicating the dst list.
	missing   []int
	pending   []*routeTree
	seen      []int32
	seenStamp int32

	// Per-shard BFS scratch, indexed by the ShardedEval shard index (one
	// goroutine owns a shard index for the length of a phase). prefetch
	// grows it to the engine's width; the serial miss path uses slot 0.
	visited [][]int32
	stamps  []int32
	queues  [][]int32

	evalFn func(shard, i int)
}

// EnableRouteCache switches the oracle's next-hop queries — unbounded and
// TTL-scoped — to cached next-hop trees and makes PrefetchRoutes build
// missing trees in a sharded parallel phase. Purely a throughput
// optimization on symmetric neighbor graphs: reachability answers match the
// exact BFS (tree paths are shortest paths), with the reverse build's
// tie-breaking choosing among equal-length first hops.
func (o *Oracle) EnableRouteCache(cfg RouteCacheConfig) {
	n := o.net.N()
	if cfg.MaxTrees <= 0 {
		cfg.MaxTrees = 1024
	}
	c := &routeCache{
		o:        o,
		ttl:      cfg.TTLSecs,
		maxTrees: cfg.MaxTrees,
		trees:    make(map[int]*routeTree),
		seen:     make([]int32, n),
	}
	c.growScratch(1)
	c.evalFn = c.eval
	o.cache = c
}

// growScratch ensures BFS scratch slots 0..k-1 exist.
func (c *routeCache) growScratch(k int) {
	for len(c.visited) < k {
		c.visited = append(c.visited, make([]int32, c.o.net.N()))
		c.stamps = append(c.stamps, 0)
		c.queues = append(c.queues, nil)
	}
}

// PrefetchRoutes implements RoutePrefetcher: ensure a valid tree exists for
// every alive destination in dsts, building all missing ones in one
// ShardedEval phase over the frozen neighbor lists. A no-op unless
// EnableRouteCache ran.
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
	c.missing = c.missing[:0]
	for _, dst := range dsts {
		if c.seen[dst] == c.seenStamp {
			continue
		}
		c.seen[dst] = c.seenStamp
		if !net.Alive(dst) {
			continue
		}
		if t := c.trees[dst]; t != nil && c.valid(t, now, ver) {
			continue
		}
		c.missing = append(c.missing, dst)
	}
	if len(c.missing) == 0 {
		return
	}
	// Pre-assign tree buffers serially (the free list is shared state), then
	// build tree contents in parallel and stage the map installs for the
	// barrier, where they commit in ascending item order.
	c.pending = c.pending[:0]
	for range c.missing {
		c.pending = append(c.pending, c.take())
	}
	c.growScratch(c.o.engine.Shards())
	c.o.engine.ShardedEval(len(c.missing), c.evalFn)
}

// eval builds item i's tree on its shard's scratch and stages the install.
// Reads frozen neighbor lists and writes only the item's own tree plus the
// shard's scratch (items of one shard run sequentially on one goroutine).
func (c *routeCache) eval(shard, i int) {
	dst := c.missing[i]
	t := c.pending[i] //pqlint:parshared(per-item tree slot, pre-assigned serially before the phase)
	c.build(t, dst, shard)
	t.dst = dst
	c.o.engine.Stage(i, func() { c.install(t) })
}

// build fills t.next with the first hop toward dst for every node that can
// reach it, via BFS from dst over the frozen (symmetric) neighbor lists.
// When a node w is first reached from u, u is one hop closer to dst, so
// next[w] = u yields a shortest path.
func (c *routeCache) build(t *routeTree, dst, shard int) {
	n := c.o.net.N()
	if len(t.next) != n {
		t.next = make([]int32, n) //pqlint:parshared(per-item tree storage: t is this item's pre-assigned tree, touched by no other worker)
	}
	vis := c.visited[shard] //pqlint:parshared(per-shard BFS scratch; one goroutine owns a shard index per phase)
	if c.stamps[shard] == 1<<31-1 {
		for i := range vis {
			vis[i] = 0
		}
		c.stamps[shard] = 0 //pqlint:parshared(per-shard BFS scratch)
	}
	c.stamps[shard]++ //pqlint:parshared(per-shard BFS scratch)
	stamp := c.stamps[shard]
	queue := c.queues[shard][:0]
	vis[dst] = stamp
	t.next[dst] = -1 //pqlint:parshared(per-item tree storage)
	queue = append(queue, int32(dst))
	for head := 0; head < len(queue); head++ {
		u := int(queue[head])
		for _, w := range c.o.net.FrozenNeighbors(u) {
			if vis[w] == stamp {
				continue
			}
			vis[w] = stamp
			t.next[w] = int32(u) //pqlint:parshared(per-item tree storage)
			queue = append(queue, int32(w))
		}
	}
	for v := range t.next {
		if vis[v] != stamp {
			t.next[v] = -1 //pqlint:parshared(per-item tree storage)
		}
	}
	c.queues[shard] = queue //pqlint:parshared(per-shard BFS scratch)
}

// install publishes a built tree: stamp validity, evict past the cap, and
// make it current for its destination. Runs serially (commit phase or the
// serial miss path).
func (c *routeCache) install(t *routeTree) {
	t.built = c.o.engine.Now()
	t.version = c.o.net.NeighborVersion()
	for len(c.trees) >= c.maxTrees && c.head < len(c.order) {
		old := c.order[c.head]
		c.order[c.head] = nil
		c.head++
		if c.trees[old.dst] == old {
			delete(c.trees, old.dst)
		}
		c.free = append(c.free, old.next)
	}
	if c.head > len(c.order)/2 && c.head > 64 {
		c.order = append(c.order[:0], c.order[c.head:]...)
		c.head = 0
	}
	c.trees[t.dst] = t
	c.order = append(c.order, t)
}

func (c *routeCache) take() *routeTree {
	t := &routeTree{}
	if k := len(c.free); k > 0 {
		t.next = c.free[k-1]
		c.free = c.free[:k-1]
	}
	return t
}

func (c *routeCache) valid(t *routeTree, now float64, ver uint64) bool {
	return t.version == ver && (c.ttl <= 0 || now-t.built <= c.ttl)
}

// nextHop answers a query from the destination's tree, building it serially
// on a miss. A dead destination is unreachable, exactly as the forward BFS
// reports (a dead node appears in no live neighbor list).
//
// Scoped queries (maxTTL > 0) are answered by walking the tree from src:
// tree paths are shortest paths, so dst is within maxTTL hops iff the walk
// reaches it in at most maxTTL steps. That makes every per-hop forwarding
// query O(remaining path) instead of an O(n) bounded BFS — the tree build
// is the only graph-sized cost, amortized across all queries to dst.
func (c *routeCache) nextHop(src, dst, maxTTL int) (int, bool) {
	net := c.o.net
	if !net.Alive(dst) {
		return 0, false
	}
	now, ver := c.o.engine.Now(), net.NeighborVersion()
	t := c.trees[dst]
	if t == nil || !c.valid(t, now, ver) {
		// Serial miss path: same snapshot discipline as prefetch — prepare
		// (which may advance the version), then build over frozen lists;
		// install stamps the post-prepare version.
		net.PrepareNeighbors()
		t = c.take()
		c.build(t, dst, 0)
		t.dst = dst
		c.install(t)
	}
	nh := t.next[src]
	if nh < 0 {
		return 0, false
	}
	if maxTTL > 0 {
		v, steps := int(nh), 1
		for v != dst {
			if steps >= maxTTL {
				return 0, false
			}
			v = int(t.next[v])
			steps++
		}
	}
	return int(nh), true
}
