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
	"slices"
	"sort"

	"probquorum/internal/netstack"
	"probquorum/internal/sim"
)

// Config holds AODV's one setting. The zero value is replaced by
// DefaultConfig.
type Config struct {
	// NodeTraversalTime estimates one-hop traversal latency; ring-search
	// timeouts derive from it.
	NodeTraversalTime float64
}

// DefaultConfig returns RFC 3561's NODE_TRAVERSAL_TIME of 40 ms.
func DefaultConfig() Config { return Config{NodeTraversalTime: 0.04} }

// AODV constants: RFC 3561's defaults, with a longer active-route timeout
// suiting the paper's route-reuse observation.
const (
	// activeRouteTimeout is the route lifetime in seconds, refreshed on use.
	activeRouteTimeout = 10
	// netDiameter bounds the network diameter in hops (full-TTL floods).
	netDiameter = 35
	// ttlStart, ttlIncrement and ttlThreshold parameterize the expanding
	// ring search.
	ttlStart, ttlIncrement, ttlThreshold = 1, 2, 7
	// rreqRetries is the number of network-wide retries after the ring
	// search escalates to netDiameter.
	rreqRetries = 2
	// jitterSecs is the maximum random delay before (re)broadcasting a
	// control packet, preventing synchronized collisions (paper: 10 ms).
	jitterSecs = 0.010
)

// Control message sizes in bytes (RFC 3561 formats).
const (
	// rreqBytes is a request naming one destination; each further target
	// repeats the destination address and sequence-number fields.
	rreqBytes, rreqTargetBytes = 24, 8
	rrepBytes                  = 20
	rerrBytes                  = 12
	// dataEnvelopeBytes is the per-hop overhead of the routed-data
	// envelope.
	dataEnvelopeBytes = 4
)

// TransitTap observes routed application packets at nodes they transit
// (not the origin or final destination). Returning true consumes the packet:
// it is not forwarded further. This is the cross-layer hook behind the
// paper's RANDOM-OPT access strategy (Section 4.5).
type TransitTap func(at *netstack.Node, inner *netstack.Packet) bool

// route is a routing-table entry, 24 bytes: a node's table is a row of them
// indexed by destination. known tells "never learned" apart from "learned
// with seq 0": only a known entry has a sequence number to bump.
type route struct {
	expiry   float64
	nextHop  int32
	hops     int32
	seq      uint32
	known    bool
	valid    bool
	validSeq bool
}

// outPacket is a data packet waiting for a route or in flight at its origin.
type outPacket struct {
	inner   *netstack.Packet
	dst     int
	done    func(ok bool)
	maxTTL  int // 0: unlimited discovery; >0: single scoped attempt
	retried bool
}

// discovery tracks an in-progress route request at its originator: one ring
// schedule and one timer for every destination it still searches for.
type discovery struct {
	ttl         int
	fullRetries int
	timer       *sim.Timer
	// targets are the destinations not yet resolved, in the order the
	// request names them.
	targets []*target
	scoped  bool
}

// target is one destination of a discovery and the packets waiting for it.
type target struct {
	dst     int
	pending []*outPacket
}

// index returns the position of dst among d's targets; dst must be one, as
// it is whenever st.disc registers d under it.
func (d *discovery) index(dst int) int {
	return slices.IndexFunc(d.targets, func(t *target) bool { return t.dst == dst })
}

// rreqKey packs a request's (originator, id) into the duplicate cache's key.
func rreqKey(orig int, id uint32) uint64 { return uint64(orig)<<32 | uint64(id) }

// pathDiscoveryTime is RFC 3561's PATH_DISCOVERY_TIME, 2·NET_TRAVERSAL_TIME =
// 4·NodeTraversalTime·netDiameter: how long a node must remember a RREQ to
// recognise a late copy of it (§6.3, §6.5).
func (c Config) pathDiscoveryTime() float64 {
	return 4 * c.NodeTraversalTime * netDiameter
}

// seenAt is one duplicate-RREQ cache entry in the order it was made.
type seenAt struct {
	key uint64
	at  float64
}

// nodeState is the per-node AODV state.
type nodeState struct {
	id     int
	seq    uint32
	rreqID uint32
	// routes is the routing table, one entry per destination; nil until
	// the node installs its first route.
	routes []route
	// seenOrder[seenHead:] is the duplicate-RREQ cache (keys from
	// rreqKey), oldest first, so markSeen can forget the expired ones.
	seenOrder []seenAt
	seenHead  int
	// disc registers each discovery under every destination it still
	// searches for.
	disc    map[int]*discovery
	taps    []TransitTap
	handler *nodeHandler
}

// Routing runs AODV on every node of a network.
type Routing struct {
	net    *netstack.Network
	cfg    Config
	engine *sim.Engine
	nodes  []*nodeState

	// view is what a routed arrival hands the application (arrive).
	view upcallView

	// Discoveries counts RREQ rings originated: one per ring of a
	// discovery, however many destinations it names.
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

// New installs AODV on all nodes of net. A node's routing table is a dense
// row of n 24-byte entries, allocated at its first route install, so the
// tables hold at most 24·n bytes per node and 24·n² in all: 15 MB at the
// n=800 of the paper's largest figures. The tiers at scale run the oracle
// router (NewOracle), not this one.
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
			id:   id,
			disc: make(map[int]*discovery),
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
// rebooting after a crash must not retain. Each pending target fails once
// (each buffered packet's done callback fires with ok=false), in ascending
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
		r.resolveTarget(st, dst, false)
	}
	clear(st.routes)
	st.seenOrder, st.seenHead = st.seenOrder[:0], 0
}

// markSeen enters key into st's duplicate-RREQ cache, first forgetting every
// entry older than PATH_DISCOVERY_TIME: a copy that late is a new request as
// far as RFC 3561 is concerned, and a cache that only grew would hold every
// flood of the run at every node.
func (r *Routing) markSeen(st *nodeState, key uint64) {
	now, q, horizon := r.engine.Now(), st.seenOrder, r.cfg.pathDiscoveryTime()
	for st.seenHead < len(q) && q[st.seenHead].at+horizon < now {
		st.seenHead++
	}
	if st.seenHead > len(q)/2 {
		q = q[:copy(q, q[st.seenHead:])]
		st.seenHead = 0
	}
	st.seenOrder = append(q, seenAt{key, now})
}

// seen reports whether key is in st's duplicate-RREQ cache, scanning newest
// first, where a flood's copies find their entry.
func (st *nodeState) seen(key uint64) bool {
	live := st.seenOrder[st.seenHead:]
	for i := len(live) - 1; i >= 0; i-- {
		if live[i].key == key {
			return true
		}
	}
	return false
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

// entry returns st's table entry for dst, or nil if dst was never learned.
func (st *nodeState) entry(dst int) *route {
	if st.routes == nil || !st.routes[dst].known {
		return nil
	}
	return &st.routes[dst]
}

// validRoute returns the live route entry for dst, if any.
func (r *Routing) validRoute(st *nodeState, dst int) *route {
	rt := st.entry(dst)
	if rt == nil || !rt.valid || rt.expiry < r.engine.Now() {
		return nil
	}
	return rt
}

// touchRoute refreshes the lifetime of the route to dst (and is a no-op
// otherwise), per RFC 3561's refresh-on-use.
func (r *Routing) touchRoute(st *nodeState, dst int) {
	if rt := st.entry(dst); rt != nil && rt.valid {
		exp := r.engine.Now() + activeRouteTimeout
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
	if st.routes == nil {
		st.routes = make([]route, len(r.nodes))
	}
	// An entry never learned is invalid, so it is always accepted.
	rt := &st.routes[dst]
	accept := !rt.valid || rt.expiry < now ||
		(hasSeq && rt.validSeq && int32(seq-rt.seq) > 0) ||
		(hasSeq && !rt.validSeq) ||
		((!hasSeq || (rt.validSeq && seq == rt.seq)) && hops < int(rt.hops))
	if !accept {
		return
	}
	rt.known = true
	rt.nextHop = int32(nextHop)
	rt.hops = int32(hops)
	if hasSeq {
		rt.seq = seq
		rt.validSeq = true
	}
	rt.valid = true
	rt.expiry = now + activeRouteTimeout
}

// jitter returns a small random broadcast delay.
func (r *Routing) jitter() float64 {
	return r.engine.Rand().Float64() * jitterSecs
}
