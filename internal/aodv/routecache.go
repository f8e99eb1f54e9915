package aodv

import "probquorum/internal/netstack"

// RoutePrefetcher is implemented by routers that can bulk-prepare routing
// state for an imminent fan-out: the quorum layer calls it with the member
// set it is about to message, so the router can build all missing routes in
// one pass instead of one at a time on first use. Routers without a cache
// implement it as a no-op.
type RoutePrefetcher interface {
	PrefetchRoutes(origin int, dsts []int)
}

var _ RoutePrefetcher = (*Oracle)(nil)

// RouteCacheConfig configures the oracle route-tree cache.
type RouteCacheConfig struct {
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
	version  uint64
	// lens marks a field PrefetchRoutes grew only over the shortest paths
	// between dst and one origin. It cannot tell "off those paths" from
	// "unreachable", so a noRoute read on it restarts it whole.
	lens bool
}

// routeCache answers next-hop queries — unbounded and TTL-scoped — from
// per-destination distance fields over the geometric provider's lists, whose
// version counter captures every change and which are symmetric (w lists v iff
// v lists w). A tree is valid while the neighbor-graph version is unchanged;
// an invalid tree is restarted in place and a missing one started fresh, and
// either grows only as far as its askers are from the destination: on demand,
// or in bulk by PrefetchRoutes — out to the origin of the fan-out, over the
// origin–destination geodesics only.
type routeCache struct {
	o        *Oracle
	maxTrees int

	trees []*routeTree // by destination; nil = none
	// order holds every tree of trees exactly once, in installation order
	// (head is the logical front): a rebuild keeps the tree's place, eviction
	// pops the front into the free list.
	order []*routeTree
	head  int
	free  []*routeTree

	// Prefetch scratch: pending holds the trees the current prefetch starts
	// and extends to its origin; seen is a stamp array deduplicating the dst
	// list.
	pending   []*routeTree
	seen      []int32
	seenStamp int32

	queue []int32 // BFS scratch of extend
}

// EnableRouteCache answers the oracle's next-hop queries from cached
// per-destination distance fields and makes PrefetchRoutes start missing ones
// in bulk. NewOracle already does this on the stacks where the cache pays;
// call it to put the same cache on a mobile stack or to set non-default bounds
// — on a stack that has the cache it only changes the bounds. Heartbeat lists
// change unobserved and are not symmetric, so the cache panics on them.
func (o *Oracle) EnableRouteCache(cfg RouteCacheConfig) {
	if o.net.Config().Neighbors != netstack.NeighborsOracle {
		panic("aodv: the route cache needs the geometric neighbor provider")
	}
	if cfg.MaxTrees <= 0 {
		cfg.MaxTrees = 1024
	}
	if o.cache == nil {
		n := o.net.N()
		o.cache = &routeCache{o: o, trees: make([]*routeTree, n), seen: make([]int32, n)}
	}
	o.cache.maxTrees = cfg.MaxTrees
}

// PrefetchRoutes implements RoutePrefetcher: ensure a valid tree exists for
// every alive destination in dsts, starting all missing ones and growing
// them out to origin — the node about to send — over the frozen neighbor
// lists. A member's tree labels only the nodes a packet from origin can ask
// from, the shortest origin–member paths, found with one field grown from
// origin first (DESIGN.md §15). A no-op on an oracle without the cache.
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
	ver := net.NeighborVersion()
	if c.seenStamp == 1<<31-1 {
		for i := range c.seen {
			c.seen[i] = 0
		}
		c.seenStamp = 0
	}
	c.seenStamp++
	// Claim every tree, grow every tree, then install the new ones in item
	// order: no install runs while a claimed tree is still to grow, so an
	// eviction never frees one. The origin's tree is made valid before the
	// first claim: installing it later could evict a stale tree already
	// claimed in place, which would then be installed a second time.
	var ot *routeTree
	c.pending = c.pending[:0]
	for _, dst := range dsts {
		if c.seen[dst] == c.seenStamp {
			continue
		}
		c.seen[dst] = c.seenStamp
		if t := c.trees[dst]; !net.Alive(dst) || t != nil && t.version == ver {
			continue
		}
		if ot == nil && net.Alive(origin) {
			if ot = c.trees[origin]; ot == nil || ot.version != ver {
				ot = c.miss(origin, ver)
			} else if ot.lens {
				c.start(ot, false)
			}
			if dst == origin {
				continue
			}
		}
		c.pending = append(c.pending, c.claim(dst, ver))
	}
	// Each tree grows as a lens when the origin's field reaches its
	// destination, whole when there is no such field or the destination is
	// in another component.
	var originDist []uint16
	if ot != nil {
		for _, t := range c.pending {
			c.extend(ot, t.dst, 0, nil)
		}
		originDist = ot.dist
	}
	fresh := c.pending[:0]
	for _, t := range c.pending {
		lens := originDist
		if lens != nil && lens[t.dst] == noRoute {
			lens = nil
		}
		c.start(t, lens != nil)
		c.extend(t, origin, 0, lens)
		if c.trees[t.dst] != t {
			fresh = append(fresh, t)
		}
	}
	for _, t := range fresh {
		c.install(t)
	}
}

// miss makes dst's tree valid as of ver on the query path: restarted in
// place, or a new one installed.
func (c *routeCache) miss(dst int, ver uint64) *routeTree {
	t := c.claim(dst, ver)
	c.start(t, false)
	if c.trees[dst] != t {
		c.install(t)
	}
	return t
}

// claim returns the tree a miss on dst has to fill, stamped valid as of ver:
// dst's stale tree, which keeps its storage and its place in the eviction
// order, or a tree off the free list that install must publish.
func (c *routeCache) claim(dst int, ver uint64) *routeTree {
	t := c.trees[dst]
	if t == nil {
		if k := len(c.free); k > 0 {
			t, c.free = c.free[k-1], c.free[:k-1]
		} else {
			t = &routeTree{dist: make([]uint16, len(c.trees))}
		}
		t.dst = dst
	}
	t.version = ver
	return t
}

// start resets t to the BFS's initial state: only dst labelled, only dst on
// the frontier; lens says whether what follows is restricted to one origin's
// geodesics.
func (c *routeCache) start(t *routeTree, lens bool) {
	t.lens = lens
	dist := t.dist
	dist[0] = noRoute
	for i := 1; i < len(dist); i *= 2 {
		copy(dist[i:], dist[:i]) // fill by doubling: memmove speed, not a store per node
	}
	dist[t.dst] = 0
	t.frontier = append(t.frontier[:0], int32(t.dst)) //pqlint:allow noalloc(one element into the tree's own frontier: allocates for a new tree only)
}

// extend resumes t's BFS from dst over the frozen neighbor lists — the field
// doubles as the visited set — expanding whole nodes in queue order until src
// is labelled, every node within ttl hops of dst is (ttl > 0: a scoped query
// needs no more than that ball), or the component is exhausted. Levels
// complete in order, so a label, once written, is the full BFS's.
//
// A non-nil lens is the distance field of src — grown at least as far as
// dst — and restricts the BFS to the nodes on shortest
// src–dst paths: w at depth d is labelled only if lens[w]+d = lens[dst].
// Every shortest path from such a w to dst stays inside that set, so the
// depths are still the true distances and each labelled node's closer
// neighbors are all labelled too.
//
//pqlint:noalloc
func (c *routeCache) extend(t *routeTree, src, ttl int, lens []uint16) {
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
	queue := append(c.queue[:0], t.frontier...) //pqlint:allow noalloc(scratch grows to the largest component once, then is reused)
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
	t.frontier = append(t.frontier[:0], queue[head:]...) //pqlint:allow noalloc(grows to the widest frontier the tree has paused on, then is reused)
	c.queue = queue
}

// install publishes a new tree, evicting the oldest ones past the cap.
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

// nextHop answers a query from the destination's distance field, starting it
// on a miss and growing it until it covers src: the first (lowest-id)
// neighbor of src that is one hop closer to dst, provided dst is within maxTTL
// hops (0 = unbounded). On symmetric lists that is exactly the
// forward BFS's answer — its queue is ordered by first hop, so it reaches any
// node first through the lowest-id neighbor of src that lies on a shortest
// path — at O(degree) per query once src is labelled; growing the field is
// the only graph-sized cost, paid once per node across all queries to dst and
// only out to the farthest asker. A dead destination is unreachable, as the
// BFS reports (a dead node appears in no live neighbor list).
//
// Scan and extension read the frozen lists, which at an unchanged version are
// what the tree was started from.
func (c *routeCache) nextHop(src, dst, maxTTL int) (int, bool) {
	net := c.o.net
	if !net.Alive(dst) {
		return 0, false
	}
	t := c.trees[dst]
	if t == nil || t.version != net.NeighborVersion() {
		// Miss: same snapshot discipline as prefetch — prepare (which may
		// advance the version), then grow over frozen lists.
		net.PrepareNeighbors()
		t = c.miss(dst, net.NeighborVersion()) //pqlint:allow noalloc(a tree is claimed or built once per destination and neighbor version, not per hop)
	}
	if t.dist[src] == noRoute {
		if t.lens {
			// src is off the lens or unreachable, and only the whole field can
			// say which. A second asker is also the evidence that the tree is
			// shared, so it stays whole.
			c.start(t, false)
		}
		c.extend(t, src, maxTTL, nil)
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
