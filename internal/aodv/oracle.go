package aodv

import (
	"math"

	"probquorum/internal/netstack"
	"probquorum/internal/sim"
)

// Router is the multihop unicast service the quorum layer consumes. Two
// implementations exist: Routing (AODV, with discovery floods and control
// overhead) and Oracle (zero-overhead shortest paths computed from the
// instantaneous neighbor graph). Swapping them isolates the paper's "cost
// of establishing the routes" from the "cost of using the routes"
// (Section 4.1).
type Router interface {
	// Send routes inner from src to dst; done (may be nil) reports
	// whether the packet was handed off toward a live route. The router
	// reads inner, and never changes it, until the last hop has arrived;
	// the destination's handler and the transit taps are handed a packet
	// they may read during the upcall only. Send addresses the packet from
	// dst, never from inner's Src or Dst, so one inner packet may go to
	// many destinations.
	Send(src, dst int, inner *netstack.Packet, done func(ok bool))
	// SendScoped is Send limited to maxTTL hops; it fails fast when the
	// destination is farther.
	SendScoped(src, dst int, inner *netstack.Packet, maxTTL int, done func(ok bool))
	// AddTransitTap observes routed packets at transit nodes (RANDOM-OPT).
	AddTransitTap(id int, tap TransitTap)
	// HasRoute reports whether src can currently reach dst.
	HasRoute(src, dst int) bool
}

var (
	_ Router = (*Routing)(nil)
	_ Router = (*Oracle)(nil)
)

// Oracle is an idealized routing service: each send follows a hop-by-hop
// shortest path computed on the current neighbor graph, with no control
// traffic. Use it as a baseline that isolates quorum-protocol costs from
// route-discovery costs.
type Oracle struct {
	net    *netstack.Network
	engine *sim.Engine
	taps   [][]TransitTap

	// BFS scratch, reused across nextHop calls so steady-state routing does
	// not allocate: visited is a stamp array (visited[i] == stamp means
	// "seen in the current traversal"), parent/queue/depths are the
	// traversal state. The traversal order is exactly the previous
	// allocate-per-call implementation's, so results are bit-identical.
	visited []int32
	stamp   int32
	parent  []int32
	queue   []int32
	depths  []int32

	// cache is the per-destination route-tree cache with bulk prefetch
	// (routecache.go); nil on stacks NewOracle does not put it on unless
	// EnableRouteCache ran. The BFS scratch above stays unallocated
	// while it is set.
	cache *routeCache

	// hopDone is the send-done callback of every hop nobody else waits on,
	// bound once: it captures only o, and a literal at the call site is
	// built per hop.
	hopDone func(ok bool)
	// sentFree recycles the first-hop completions of the sends whose
	// caller passed a done (sentHop).
	sentFree []*sentHop

	// view is what a routed arrival hands the application (arrive).
	view upcallView

	// DataDrops counts packets dropped because no path existed or a hop
	// failed.
	DataDrops uint64
}

// oracleHandler adapts netstack dispatch.
type oracleHandler struct{ o *Oracle }

// HandlePacket implements netstack.Handler.
func (h *oracleHandler) HandlePacket(n *netstack.Node, pkt *netstack.Packet, from int) {
	h.o.handleData(n, pkt, from)
}

// NewOracle installs the oracle router on all nodes of net. Queries are
// answered from the route-tree cache where it is exact and pays: the
// geometric neighbor provider (exact version counter, symmetric lists) on a
// network that does not move. On a mobile one the version advances at every
// timestamp and a tree never outlives its query, and heartbeat lists change
// unobserved, so those stacks run the per-hop BFS (DESIGN.md §15).
func NewOracle(net *netstack.Network) *Oracle {
	o := &Oracle{
		net:    net,
		engine: net.Engine(),
		taps:   make([][]TransitTap, net.N()),
	}
	o.hopDone = func(ok bool) {
		if !ok {
			o.DataDrops++
		}
	}
	h := &oracleHandler{o: o}
	for id := 0; id < net.N(); id++ {
		net.Node(id).Register(netstack.ProtoRouted, h)
	}
	if net.Config().Neighbors == netstack.NeighborsOracle && net.Mobility().MaxSpeed() == 0 {
		o.EnableRouteCache(RouteCacheConfig{})
	}
	return o
}

// AddTransitTap implements Router.
func (o *Oracle) AddTransitTap(id int, tap TransitTap) {
	o.taps[id] = append(o.taps[id], tap)
}

// HasRoute implements Router.
func (o *Oracle) HasRoute(src, dst int) bool {
	_, ok := o.nextHop(src, dst, 0)
	return ok
}

// Send implements Router.
func (o *Oracle) Send(src, dst int, inner *netstack.Packet, done func(ok bool)) {
	o.send(src, dst, inner, 0, done)
}

// SendScoped implements Router.
func (o *Oracle) SendScoped(src, dst int, inner *netstack.Packet, maxTTL int, done func(ok bool)) {
	if maxTTL <= 0 {
		maxTTL = 1
	}
	o.send(src, dst, inner, maxTTL, done)
}

func (o *Oracle) send(src, dst int, inner *netstack.Packet, maxTTL int, done func(ok bool)) {
	node := o.net.Node(src)
	if !node.Alive() {
		o.fail(done)
		return
	}
	if src == dst {
		node.DeliverLocal(inner, src)
		if done != nil {
			done(true)
		}
		return
	}
	next, ok := o.nextHop(src, dst, maxTTL)
	if !ok {
		o.fail(done)
		return
	}
	ttl := maxTTL
	if ttl == 0 {
		ttl = o.net.N() // effectively unbounded
	}
	pkt := netstack.Packet{
		Proto: netstack.ProtoRouted, Src: src, Dst: dst,
		TTL: ttl, Bytes: inner.Bytes + dataEnvelopeBytes, Hops: inner.Hops,
		Payload: inner,
	}
	hop := o.hopDone
	if done != nil {
		hop = o.newSentHop(done)
	}
	node.SendOneHop(next, &pkt, hop)
}

// sentHop is the first-hop completion of a send whose caller passed a done:
// it runs done, then counts a failure as hopDone does. It is pooled, with fn
// bound once per object. The MAC calls a hop's completion at most once, and
// fire puts the object back on the free list before it runs done, so a send
// made from inside done can reuse it.
type sentHop struct {
	o    *Oracle
	done func(ok bool)
	fn   func(ok bool)
}

func (h *sentHop) fire(ok bool) {
	o, done := h.o, h.done
	h.done = nil
	o.sentFree = append(o.sentFree, h)
	done(ok)
	o.hopDone(ok)
}

// newSentHop takes a completion from the free list, or makes one with fn
// bound when the list is dry, and returns its fn running done.
func (o *Oracle) newSentHop(done func(ok bool)) func(ok bool) {
	var h *sentHop
	if n := len(o.sentFree); n > 0 {
		h = o.sentFree[n-1]
		o.sentFree[n-1] = nil
		o.sentFree = o.sentFree[:n-1]
	} else {
		h = &sentHop{o: o}
		h.fn = h.fire
	}
	h.done = done
	return h.fn
}

func (o *Oracle) fail(done func(bool)) {
	o.DataDrops++
	if done != nil {
		done(false)
	}
}

// handleData forwards a routed envelope toward its destination. The next
// hop's envelope is built on this stack: SendOneHop copies it.
//
//pqlint:noalloc
func (o *Oracle) handleData(n *netstack.Node, pkt *netstack.Packet, from int) {
	if !arrive(n, pkt, from, o.taps[n.ID()], &o.view, &o.DataDrops) {
		return
	}
	next, found := o.nextHop(n.ID(), pkt.Dst, pkt.TTL-1)
	if !found {
		o.DataDrops++
		return
	}
	fwd := *pkt
	fwd.TTL--
	fwd.Hops++
	n.SendOneHop(next, &fwd, o.hopDone)
}

// nextHop returns the first hop of a shortest path from src to dst within
// maxTTL hops (0 = unbounded): a forward BFS over the live neighbor graph
// using reused stamped scratch, visiting nodes in exactly the order the
// original allocate-per-call implementation did (same queue discipline, same
// ascending-neighbor expansion), so tie-breaking — and every recorded run —
// is unchanged while steady-state routing no longer allocates.
//
// With the route cache, every query — routed packets carry a finite TTL, so
// that includes each intermediate hop of an "unbounded" send — is answered
// from the destination's distance field instead (routecache.go), and this
// BFS is the reference the tests hold it to, hop for hop.
func (o *Oracle) nextHop(src, dst int, maxTTL int) (int, bool) {
	if src == dst {
		return src, true
	}
	if o.cache != nil {
		return o.cache.nextHop(src, dst, maxTTL)
	}
	n := o.net.N()
	if len(o.visited) != n {
		o.visited, o.parent = make([]int32, n), make([]int32, n) //pqlint:allow noalloc(BFS scratch, sized once per network and reused)
		o.stamp = 0
	}
	if o.stamp == math.MaxInt32 {
		for i := range o.visited {
			o.visited[i] = 0
		}
		o.stamp = 0
	}
	o.stamp++
	stamp := o.stamp
	o.visited[src] = stamp
	o.parent[src] = -1
	queue, depths := o.queue[:0], o.depths[:0]
	queue = append(queue, int32(src))
	depths = append(depths, 0)
	for head := 0; head < len(queue); head++ {
		cur, depth := int(queue[head]), int(depths[head])
		if maxTTL > 0 && depth >= maxTTL {
			continue
		}
		for _, nb := range o.net.Neighbors(cur) {
			if o.visited[nb] == stamp {
				continue
			}
			o.visited[nb] = stamp
			o.parent[nb] = int32(cur)
			if nb == dst {
				// Walk back to find the first hop.
				at := nb
				for int(o.parent[at]) != src {
					at = int(o.parent[at])
				}
				o.queue, o.depths = queue, depths
				return at, true
			}
			queue = append(queue, int32(nb))
			depths = append(depths, int32(depth+1))
		}
	}
	o.queue, o.depths = queue, depths
	return 0, false
}
