package netstack

import (
	"math"
	"sort"

	"probquorum/internal/geom"
	"probquorum/internal/phy"
	"probquorum/internal/sim"
)

// oracleNeighbors computes neighborhoods geometrically from true positions —
// the idealization of a perfectly fresh heartbeat protocol, and the ideal
// stack's medium: a node's list is the live nodes within range of it
// (Dist2 ≤ r²), ascending, from the candidates of a phy.Index. Lists are
// memoized per (timestamp, aliveEpoch), so the router's per-hop BFS — which
// queries every visited node — and the ideal MAC, which asks for the
// sender's list at every broadcast, compute each list at most once per event,
// and on a static network without churn exactly once per run; a liveness
// flip on a static network invalidates only the lists it can change, those
// of the nodes within range of the flipped one (AliveFlipped). A broadcast
// and a per-hop BFS step cost O(degree), not O(n), which is what lets
// open-loop load runs route 10⁵+ messages per figure.
type oracleNeighbors struct {
	net     *Network
	index   *phy.Index // every node, dead ones too
	r2      float64
	stamp   float64 // engine time of the last cache invalidation; -1 = never
	epoch   uint64  // net.aliveEpoch at the last cache invalidation
	static  bool    // positions never change: lists outlive timestamps
	lists   [][]int // memoized per-node neighbor lists
	valid   []bool
	allLive bool         // every live node's list is valid: Prepare has nothing to do
	pts     []geom.Point // the candidates' positions
	version uint64
}

func newOracleNeighbors(net *Network) *oracleNeighbors {
	n, r := net.N(), net.Range()
	return &oracleNeighbors{
		net:    net,
		index:  phy.NewIndex(net.engine, n, net.cfg.Side, r, net.mob, net.mob.MaxSpeed()),
		r2:     r * r,
		static: net.mob.MaxSpeed() == 0,
		stamp:  -1,
		lists:  make([][]int, n),
		valid:  make([]bool, n),
	}
}

// refresh invalidates the caches when time advanced (on a mobile network)
// or liveness changed.
func (o *oracleNeighbors) refresh() {
	now := o.net.engine.Now()
	if o.stamp >= 0 && o.epoch == o.net.aliveEpoch && (o.static || now <= o.stamp) {
		return
	}
	clear(o.valid)
	o.allLive = false
	o.stamp, o.epoch = now, o.net.aliveEpoch
	o.version++
}

// Neighbors returns id's current neighbours, ascending, in a slice valid
// until the list is next rebuilt.
func (o *oracleNeighbors) Neighbors(id int) []int {
	o.refresh()
	if o.valid[id] {
		return o.lists[id]
	}
	net := o.net
	now := net.engine.Now()
	p := net.mob.Position(id, now)
	cands := o.index.Candidates(id, net.Range())
	o.pts = net.mob.Positions(cands, now, o.pts[:0])
	list := o.lists[id][:0]
	for i, other := range cands {
		if other != id && net.alive[other] && geom.Dist2(p, o.pts[i]) <= o.r2 {
			list = append(list, other)
		}
	}
	// BFS tie-breaking — hence every oracle-routed run's exact outcome —
	// and the order the ideal MAC hands a broadcast up in depend on
	// neighbor order; the index returns cell order.
	sort.Ints(list)
	o.lists[id] = list
	o.valid[id] = true
	return list
}

// Linked reports whether b is in a's list — b ≠ a, alive, and within range
// of a on true positions now — without building the list.
func (o *oracleNeighbors) Linked(a, b int) bool {
	net, now := o.net, o.net.engine.Now()
	return a != b && net.alive[b] && geom.Dist2(net.mob.Position(a, now), net.mob.Position(b, now)) <= o.r2
}

// AliveFlipped is told of every liveness flip, after it. Where nothing
// moves, id enters or leaves exactly the lists of the nodes within range of
// it, so only those are invalidated (and the version advanced) here and
// refresh finds the epoch current; a mobile network, or one not listed yet,
// leaves it to refresh, and a network without geometric lists (nil) has
// nothing to invalidate.
func (o *oracleNeighbors) AliveFlipped(id int) {
	if o == nil || !o.static || o.stamp < 0 {
		return
	}
	for _, near := range o.index.Candidates(id, o.net.Range()) {
		o.valid[near] = false
	}
	o.allLive = false
	o.epoch = o.net.aliveEpoch
	o.version++
}

// Version is a counter that advances with every cache invalidation, i.e.
// whenever liveness flipped or (mobile network) time moved, which is exactly
// when a geometric neighbor set can change. Consumers that cache derived
// state (the oracle router's route trees) key it on this counter.
func (o *oracleNeighbors) Version() uint64 {
	o.refresh()
	return o.version
}

// Prepare revalidates every live node's list at the current instant, so that
// a graph walk within the same event (a route-tree build) can read them via
// Frozen without mutation. It runs once per invalidation — a route-tree miss
// at an unchanged version finds them all valid without looking.
func (o *oracleNeighbors) Prepare() {
	o.refresh()
	if o.allLive {
		return
	}
	for id := 0; id < o.net.N(); id++ {
		if o.net.alive[id] && !o.valid[id] {
			o.Neighbors(id)
		}
	}
	o.allLive = true
}

// Frozen returns id's cached list with no revalidation. Only valid after
// Prepare in the same event; read-only (DESIGN.md §15).
func (o *oracleNeighbors) Frozen(id int) []int { return o.lists[id] }

// Heartbeat neighbor discovery: the beacon payload size, the beacon period
// (paper: 10 s) and how long an entry outlives its last beacon (just over two
// periods).
const (
	beaconBytes      = 20
	heartbeatSecs    = 10.0
	heartbeatTimeout = 2.2 * heartbeatSecs
)

// heartbeatService implements the paper's neighbor discovery: every node
// broadcasts a beacon each heartbeatSecs, with a random phase to
// desynchronize; a neighbor entry expires heartbeatTimeout after its last
// beacon. Stale entries are exactly the mobility artifact the
// paper's salvation/repair techniques must cope with.
//
// Neighbor lists are cached per node and rebuilt only when the answer can
// actually change: a beacon that adds a previously absent (or expired)
// sender marks the node dirty, a liveness flip invalidates via aliveEpoch,
// and the passage of time invalidates at the earliest cached-entry expiry.
// Within the validity window a cached list equals what a fresh scan would
// return — a refresh beacon from a current neighbor changes timestamps, not
// membership — so caching is observationally equivalent to the previous
// rebuild-per-call implementation (same lists, same sorted order, same
// expiry semantics) while taking the oracle router's per-hop BFS from
// "rebuild and sort every visited node's map" to a slice read.
type heartbeatService struct {
	net      *Network
	lastSeen []map[int]float64 // id -> neighbor -> last beacon time
	// beacons holds one immutable beacon packet per node, built once and
	// rebroadcast every cycle: all fields are constant per sender and the
	// receive path reads only the previous-hop id, so reuse is safe.
	beacons []*Packet

	lists   [][]int   // cached sorted neighbor lists
	expires []float64 // earliest entry expiry of each cached list
	epochs  []uint64  // net.aliveEpoch each list was built under
	fresh   []bool    // false forces a rebuild (new/expired-sender beacon)
}

func newHeartbeatService(net *Network) *heartbeatService {
	h := &heartbeatService{
		net:      net,
		lastSeen: make([]map[int]float64, net.N()),
		beacons:  make([]*Packet, net.N()),
		lists:    make([][]int, net.N()),
		expires:  make([]float64, net.N()),
		epochs:   make([]uint64, net.N()),
		fresh:    make([]bool, net.N()),
	}
	rng := net.engine.NewStream()
	for id := 0; id < net.N(); id++ {
		h.lastSeen[id] = make(map[int]float64)
		h.beacons[id] = &Packet{
			Proto: ProtoBeacon,
			Src:   id,
			Dst:   Broadcast,
			Bytes: beaconBytes,
		}
		node := net.Node(id)
		node.Register(ProtoBeacon, h)
		phase := rng.Float64() * heartbeatSecs
		sim.NewTicker(net.engine, phase, heartbeatSecs, func() { h.beacon(node) })
	}
	return h
}

func (h *heartbeatService) beacon(n *Node) {
	if !n.Alive() {
		return
	}
	n.BroadcastOneHop(h.beacons[n.ID()])
}

// HandlePacket implements Handler: record the beacon sender. The cached
// list is invalidated only when membership can change — the sender was
// absent or already past the timeout; a refresh from a current neighbor
// leaves the cached list exact (its conservative expiry just rebuilds a
// hair early).
func (h *heartbeatService) HandlePacket(n *Node, pkt *Packet, from int) {
	id := n.ID()
	now := h.net.engine.Now()
	old, had := h.lastSeen[id][from]
	h.lastSeen[id][from] = now
	if !had || now-old > heartbeatTimeout {
		h.fresh[id] = false
	}
}

// Neighbors returns id's beacon-fresh neighbours, sorted so that runs are
// deterministic despite map iteration order.
func (h *heartbeatService) Neighbors(id int) []int {
	now := h.net.engine.Now()
	if h.fresh[id] && h.epochs[id] == h.net.aliveEpoch && now <= h.expires[id] {
		return h.lists[id]
	}
	return h.rebuild(id, now)
}

// rebuild rescans id's beacon table: exactly the filter the uncached
// implementation applied per call, written over the node's cached list.
func (h *heartbeatService) rebuild(id int, now float64) []int {
	list := h.lists[id][:0]
	expires := math.Inf(1)
	for nb, seen := range h.lastSeen[id] {
		if now-seen <= heartbeatTimeout && h.net.alive[nb] {
			list = append(list, nb)
			if e := seen + heartbeatTimeout; e < expires {
				expires = e
			}
		} else if now-seen > heartbeatTimeout {
			delete(h.lastSeen[id], nb)
		}
	}
	sort.Ints(list)
	h.lists[id] = list
	h.expires[id] = expires
	h.epochs[id] = h.net.aliveEpoch
	h.fresh[id] = true
	return list
}
