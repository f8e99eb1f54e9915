// Package aodv implements an RFC 3561-style subset of the Ad hoc On-Demand
// Distance Vector routing protocol: expanding-ring route discovery (RREQ
// floods with growing TTL), reverse/forward path setup via RREP, destination
// sequence numbers for loop freedom, route expiry with refresh-on-use, and
// RERR propagation when the MAC reports a broken link.
//
// The paper's simulations use AODV for every multihop unicast (Section 2.4),
// and its results hinge on two AODV behaviours this package reproduces:
// route-discovery floods dominating the cost of RANDOM quorum accesses
// (Fig. 8), and routing-failure notifications reaching the application so it
// can adapt (Section 6.2). A TTL-scoped send supports the paper's
// reply-path local repair, which invokes routing limited to 3 hops.
package aodv

import (
	"sort"

	"probquorum/internal/netstack"
	"probquorum/internal/sim"
)

// Config holds AODV constants. Zero values are replaced by defaults close
// to RFC 3561's, with a longer active-route timeout suiting the paper's
// route-reuse observation.
type Config struct {
	// ActiveRouteTimeout is the route lifetime, refreshed on use.
	ActiveRouteTimeout float64
	// NodeTraversalTime estimates one-hop traversal latency; ring-search
	// timeouts derive from it.
	NodeTraversalTime float64
	// NetDiameter bounds the network diameter in hops (full-TTL floods).
	NetDiameter int
	// TTLStart, TTLIncrement, TTLThreshold parameterize the expanding
	// ring search.
	TTLStart, TTLIncrement, TTLThreshold int
	// RreqRetries is the number of network-wide retries after the ring
	// search escalates to NetDiameter.
	RreqRetries int
	// JitterSecs is the maximum random delay before (re)broadcasting
	// control packets, preventing synchronized collisions (paper: 10 ms).
	JitterSecs float64
	// RetryDataOnLinkBreak makes the origin buffer a data packet whose
	// first hop broke and re-discover once before giving up.
	RetryDataOnLinkBreak bool
}

// DefaultConfig returns the defaults described on Config.
func DefaultConfig() Config {
	return Config{
		ActiveRouteTimeout:   10,
		NodeTraversalTime:    0.04,
		NetDiameter:          35,
		TTLStart:             1,
		TTLIncrement:         2,
		TTLThreshold:         7,
		RreqRetries:          2,
		JitterSecs:           0.010,
		RetryDataOnLinkBreak: true,
	}
}

// Control message sizes in bytes (RFC 3561 formats).
const (
	rreqBytes = 24
	rrepBytes = 20
	rerrBytes = 12
	// dataEnvelopeBytes is the per-hop overhead of the routed-data
	// envelope.
	dataEnvelopeBytes = 4
)

// TransitTap observes routed application packets at nodes they transit
// (not the origin or final destination). Returning true consumes the packet:
// it is not forwarded further. This is the cross-layer hook behind the
// paper's RANDOM-OPT access strategy (Section 4.5).
type TransitTap func(at *netstack.Node, inner *netstack.Packet) bool

// route is a routing-table entry.
type route struct {
	nextHop  int
	hops     int
	seq      uint32
	validSeq bool
	expiry   float64
	valid    bool
}

// outPacket is a data packet waiting for a route or in flight at its origin.
type outPacket struct {
	inner   *netstack.Packet
	dst     int
	done    func(ok bool)
	maxTTL  int // 0: unlimited discovery; >0: single scoped attempt
	retried bool
}

// discovery tracks an in-progress route request at its originator.
type discovery struct {
	ttl         int
	fullRetries int
	timer       *sim.Timer
	pending     []*outPacket
	scoped      bool
}

type rreqKey struct {
	orig int
	id   uint32
}

// pathDiscoveryTime is RFC 3561's PATH_DISCOVERY_TIME, 2·NET_TRAVERSAL_TIME =
// 4·NodeTraversalTime·NetDiameter: how long a node must remember a RREQ to
// recognise a late copy of it (§6.3, §6.5).
func (c Config) pathDiscoveryTime() float64 {
	return 4 * c.NodeTraversalTime * float64(c.NetDiameter)
}

// seenAt is one duplicate-RREQ cache entry in the order it was made.
type seenAt struct {
	key rreqKey
	at  float64
}

// nodeState is the per-node AODV state.
type nodeState struct {
	id     int
	seq    uint32
	rreqID uint32
	routes map[int]*route
	// seen is the duplicate-RREQ cache; seenOrder[seenHead:] lists its
	// entries oldest first, so markSeen can forget the expired ones.
	seen      map[rreqKey]struct{}
	seenOrder []seenAt
	seenHead  int
	disc      map[int]*discovery
	taps      []TransitTap
	handler   *nodeHandler
}

// Routing runs AODV on every node of a network.
type Routing struct {
	net    *netstack.Network
	cfg    Config
	engine *sim.Engine
	nodes  []*nodeState

	// Discoveries counts route discoveries started (for the harness).
	Discoveries uint64
	// DataDrops counts routed data packets dropped in the network.
	DataDrops uint64
}

// nodeHandler adapts netstack.Handler dispatch to the shared Routing with a
// node id.
type nodeHandler struct {
	r  *Routing
	id int
}

// HandlePacket implements netstack.Handler.
func (h *nodeHandler) HandlePacket(n *netstack.Node, pkt *netstack.Packet, from int) {
	switch pkt.Proto {
	case netstack.ProtoAODV:
		h.r.handleControl(n, pkt, from)
	case netstack.ProtoRouted:
		h.r.handleData(n, pkt, from)
	}
}

// New installs AODV on all nodes of net.
func New(net *netstack.Network, cfg Config) *Routing {
	if cfg == (Config{}) {
		cfg = DefaultConfig()
	}
	r := &Routing{
		net:    net,
		cfg:    cfg,
		engine: net.Engine(),
		nodes:  make([]*nodeState, net.N()),
	}
	for id := 0; id < net.N(); id++ {
		st := &nodeState{
			id:     id,
			routes: make(map[int]*route),
			seen:   make(map[rreqKey]struct{}),
			disc:   make(map[int]*discovery),
		}
		st.handler = &nodeHandler{r: r, id: id}
		r.nodes[id] = st
		net.Node(id).Register(netstack.ProtoAODV, st.handler)
		net.Node(id).Register(netstack.ProtoRouted, st.handler)
	}
	return r
}

// ResetNode discards node id's AODV state — the routing table, the
// duplicate-RREQ cache, and every in-progress discovery — the state a node
// rebooting after a crash must not retain. Pending discoveries fail (each
// buffered packet's done callback fires with ok=false) in ascending
// destination order: the discovery map's iteration order is randomized, so
// the teardown walks a sorted key snapshot to keep replays bit-identical.
// Sequence numbers survive the reset; RFC 3561 relies on them growing
// monotonically for loop freedom.
func (r *Routing) ResetNode(id int) {
	st := r.nodes[id]
	dsts := make([]int, 0, len(st.disc))
	for dst := range st.disc {
		dsts = append(dsts, dst)
	}
	sort.Ints(dsts)
	for _, dst := range dsts {
		r.finishDiscovery(st, dst, false)
	}
	st.routes = make(map[int]*route)
	st.seen = make(map[rreqKey]struct{})
	st.seenOrder, st.seenHead = st.seenOrder[:0], 0
}

// markSeen enters key into st's duplicate-RREQ cache, first forgetting every
// entry older than PATH_DISCOVERY_TIME: a copy that late is a new request as
// far as RFC 3561 is concerned, and a cache that only grew would hold every
// flood of the run at every node.
func (r *Routing) markSeen(st *nodeState, key rreqKey) {
	now, q := r.engine.Now(), st.seenOrder
	for horizon := r.cfg.pathDiscoveryTime(); st.seenHead < len(q) && q[st.seenHead].at+horizon < now; st.seenHead++ {
		delete(st.seen, q[st.seenHead].key)
	}
	if st.seenHead > len(q)/2 {
		q = q[:copy(q, q[st.seenHead:])]
		st.seenHead = 0
	}
	st.seenOrder = append(q, seenAt{key, now})
	st.seen[key] = struct{}{}
}

// AddTransitTap registers a transit observer at node id.
func (r *Routing) AddTransitTap(id int, tap TransitTap) {
	r.nodes[id].taps = append(r.nodes[id].taps, tap)
}

// HasRoute reports whether src currently holds a valid, unexpired route to
// dst.
func (r *Routing) HasRoute(src, dst int) bool {
	return r.validRoute(r.nodes[src], dst) != nil
}

// Send routes inner from node src to node dst, discovering a route if
// needed. done (may be nil) fires with false if no route could be found (or
// the first hop broke irrecoverably), true once the packet has been handed
// to a route's first hop successfully. End-to-end delivery is confirmed
// only by application replies, as in a real stack.
func (r *Routing) Send(src, dst int, inner *netstack.Packet, done func(ok bool)) {
	r.send(src, dst, inner, 0, done)
}

// SendScoped is Send with discovery limited to a single RREQ of the given
// TTL — the paper's TTL-3 local repair. It fails fast if the destination is
// farther than maxTTL hops.
func (r *Routing) SendScoped(src, dst int, inner *netstack.Packet, maxTTL int, done func(ok bool)) {
	if maxTTL <= 0 {
		maxTTL = 1
	}
	r.send(src, dst, inner, maxTTL, done)
}

func (r *Routing) send(src, dst int, inner *netstack.Packet, maxTTL int, done func(ok bool)) {
	st := r.nodes[src]
	node := r.net.Node(src)
	if !node.Alive() {
		if done != nil {
			done(false)
		}
		return
	}
	if src == dst {
		node.DeliverLocal(inner, src)
		if done != nil {
			done(true)
		}
		return
	}
	op := &outPacket{inner: inner, dst: dst, done: done, maxTTL: maxTTL}
	if rt := r.validRoute(st, dst); rt != nil {
		r.transmitData(st, op, rt)
		return
	}
	r.enqueueDiscovery(st, op)
}

// validRoute returns the live route entry for dst, if any.
func (r *Routing) validRoute(st *nodeState, dst int) *route {
	rt := st.routes[dst]
	if rt == nil || !rt.valid || rt.expiry < r.engine.Now() {
		return nil
	}
	return rt
}

// touchRoute refreshes the lifetime of the route to dst (and is a no-op
// otherwise), per RFC 3561's refresh-on-use.
func (r *Routing) touchRoute(st *nodeState, dst int) {
	if rt := st.routes[dst]; rt != nil && rt.valid {
		exp := r.engine.Now() + r.cfg.ActiveRouteTimeout
		if exp > rt.expiry {
			rt.expiry = exp
		}
	}
}

// updateRoute installs or improves a route to dst via nextHop. Following
// RFC 3561 §6.2, an entry is replaced when the new sequence number is
// fresher, equal with fewer hops, or the old entry is invalid/unknown.
func (r *Routing) updateRoute(st *nodeState, dst, nextHop, hops int, seq uint32, hasSeq bool) {
	now := r.engine.Now()
	rt := st.routes[dst]
	if rt == nil {
		rt = &route{}
		st.routes[dst] = rt
	}
	accept := !rt.valid || rt.expiry < now ||
		(hasSeq && rt.validSeq && int32(seq-rt.seq) > 0) ||
		(hasSeq && !rt.validSeq) ||
		((!hasSeq || (rt.validSeq && seq == rt.seq)) && hops < rt.hops)
	if !accept {
		return
	}
	rt.nextHop = nextHop
	rt.hops = hops
	if hasSeq {
		rt.seq = seq
		rt.validSeq = true
	}
	rt.valid = true
	rt.expiry = now + r.cfg.ActiveRouteTimeout
}

// jitter returns a small random broadcast delay.
func (r *Routing) jitter() float64 {
	return r.engine.Rand().Float64() * r.cfg.JitterSecs
}
