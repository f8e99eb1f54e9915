package netstack

import (
	"fmt"
	"math/rand"
	"strings"

	"probquorum/internal/geom"
	"probquorum/internal/mac"
	"probquorum/internal/mobility"
	"probquorum/internal/phy"
	"probquorum/internal/sim"
)

// StackKind selects the link/physical fidelity of a network.
type StackKind int

// Stack kinds.
const (
	// StackSINR runs the 802.11 DCF MAC over the cumulative-noise SINR
	// medium — the paper-faithful configuration.
	StackSINR StackKind = iota + 1
	// StackIdeal runs the contention-free unit-disk MAC, for tests and
	// fast sweeps.
	StackIdeal
)

// String returns the kind's command-line name.
func (k StackKind) String() string {
	switch k {
	case StackSINR:
		return "sinr"
	case StackIdeal:
		return "ideal"
	}
	return fmt.Sprintf("StackKind(%d)", int(k))
}

// ParseStack is the inverse of String, case-insensitive: the one reading of
// a -stack flag.
func ParseStack(name string) (StackKind, error) {
	for k := StackSINR; k <= StackIdeal; k++ {
		if strings.EqualFold(name, k.String()) {
			return k, nil
		}
	}
	return 0, fmt.Errorf("unknown stack %q (want %v or %v)", name, StackSINR, StackIdeal)
}

// NeighborMode selects how nodes learn their one-hop neighborhood.
type NeighborMode int

// Neighbor discovery modes.
const (
	// NeighborsHeartbeat discovers neighbors with periodic beacons, as in
	// the paper (heartbeat cycle 10 s).
	NeighborsHeartbeat NeighborMode = iota + 1
	// NeighborsOracle computes neighborhoods geometrically, with no
	// beacon traffic. Useful for fast sweeps and unit tests.
	NeighborsOracle
)

// Config describes a network to build.
type Config struct {
	// N is the number of nodes (ids 0..N-1).
	N int
	// Side is the deployment area side length in meters. If zero it is
	// derived from AvgDegree via the paper's scaling rule.
	Side float64
	// AvgDegree is the target average node degree used to derive Side
	// when Side is zero (paper default: 10).
	AvgDegree float64
	// Mobility positions the nodes. If nil, nodes are placed uniformly
	// at random and remain static.
	Mobility mobility.Model
	// Stack selects the PHY/MAC fidelity (default StackSINR).
	Stack StackKind
	// PHY holds radio parameters (zero value → phy.DefaultParams()).
	PHY phy.Params
	// Neighbors selects neighbor discovery (default NeighborsHeartbeat
	// for the SINR stack, NeighborsOracle for the ideal stack). Either way
	// the ideal stack's frames reach the sender's NeighborsOracle list.
	Neighbors NeighborMode
	// LossProb is the per-attempt loss probability for the ideal stack.
	LossProb float64
	// RxLossProb drops each successfully received frame at the receiver
	// with this probability, independently per receiver, on any stack.
	// Unlike LossProb (an ideal-stack channel model that MAC retries see),
	// RxLossProb models losses the link layer cannot mask — the lossy
	// environment of gossip-routing studies — and is counted under
	// CtrLossDrops.
	RxLossProb float64
	// CellNoise selects the cell-aggregated far-field interference model
	// — the approximate scale-out mode for very large n (see
	// phy.SINRConfig.CellNoise). SINR stack only; ignored by the ideal
	// stack.
	CellNoise bool
}

// Range is the nominal transmission range in meters (paper: 200 m): the ideal
// MAC's, oracle neighbor discovery's, and the one the deployment area is
// sized for. The SINR stack derives its own ≈213 m from the radio parameters
// (Network.Range).
const Range = 200

func (c *Config) fillDefaults() {
	if c.AvgDegree == 0 {
		c.AvgDegree = 10
	}
	if c.Side == 0 {
		c.Side = geom.AreaSide(c.N, Range, c.AvgDegree)
	}
	if c.Stack == 0 {
		c.Stack = StackSINR
	}
	if c.PHY == (phy.Params{}) {
		c.PHY = phy.DefaultParams()
	}
	if c.Neighbors == 0 {
		if c.Stack == StackIdeal {
			c.Neighbors = NeighborsOracle
		} else {
			c.Neighbors = NeighborsHeartbeat
		}
	}
}

// Network owns the nodes, the shared medium, liveness (churn), message
// accounting, and neighbor discovery for one simulation run.
type Network struct {
	engine *sim.Engine
	cfg    Config
	stats  *Stats
	mob    mobility.Model
	nodes  []*Node
	alive  []bool
	nAlive int
	// aliveEpoch increments on every Fail/Revive; the oracle neighbor
	// provider keys its adjacency cache on it, so liveness flips that
	// happen without time advancing still invalidate cached lists.
	aliveEpoch uint64

	medium    *phy.SINRMedium    // nil for the ideal stack
	ideal     *mac.IdealNet      // nil for the SINR stack
	neighbors func(id int) []int // the discovery in use
	// geo is the geometric provider: neighbors under NeighborsOracle, and
	// the ideal stack's medium; nil on a SINR stack with heartbeats.
	geo *oracleNeighbors

	// lossRng, non-nil when Config.RxLossProb > 0, draws the RxLossProb
	// drop of every frame arriving at a receiver (unicast and broadcast
	// alike).
	lossRng *rand.Rand
	// partitionFunc, when non-nil, reports whether two nodes are in
	// different network partitions; cross-partition frames are dropped.
	partitionFunc PartitionFunc
	// faultFunc, when non-nil, picks a fault action for every arriving
	// frame (drop, duplication, delay).
	faultFunc LinkFaultFunc
	// deliveryObserver, when non-nil, sees every frame actually handed to
	// a node — the invariant checkers' vantage point.
	deliveryObserver func(from, to int, pkt *Packet)
	// pendingDelayed counts fault-delayed frames still in flight, closing
	// the conservation identity mid-run.
	pendingDelayed int
	// linkOrder tracks per-link arrival/delivery order while a fault
	// function is installed, so reorders are observable as a counter.
	linkOrder map[linkKey]*linkOrder

	// envs recycles the envelopes (MAC frame + in-flight send state)
	// nodes wrap around outgoing packets: SendOneHop/BroadcastOneHop take
	// one and MACSendDone — the MAC's last touch of a frame — puts it
	// back, so steady-state sending is allocation-free (DESIGN.md §9).
	envs sim.Pool[*sendEnv]
	// aliveScratch backs AliveIDs.
	aliveScratch []int
}

// PartitionFunc reports whether nodes a and b are currently separated by a
// network partition. It must be symmetric.
type PartitionFunc func(a, b int) bool

// FaultAction is what an injected link fault does to one arriving frame.
// The zero value delivers the frame normally.
type FaultAction struct {
	// Drop discards the frame (asymmetric loss, blackhole relays,
	// jamming on the non-SINR stacks). Counted under CtrFaultDrops.
	Drop bool
	// Duplicate delivers a second copy of the frame (after the same
	// Delay). Counted under CtrDupes.
	Duplicate bool
	// Delay defers delivery by this many seconds (jitter); delayed frames
	// can be overtaken by later ones, producing reordering.
	Delay float64
}

// LinkFaultFunc inspects one frame arriving at a live receiver and picks a
// fault action. A predicate needing randomness should draw from a stream of
// the network's engine so runs stay deterministic.
type LinkFaultFunc func(from, to int, pkt *Packet) FaultAction

// linkKey identifies one directed link for reorder tracking.
type linkKey struct{ from, to int }

// linkOrder tracks the arrival and delivery sequence on one directed link.
type linkOrder struct {
	nextArrival   int64
	lastDelivered int64 // highest arrival seq delivered so far; -1 when none
}

// New builds a network of cfg.N nodes on the engine.
func New(engine *sim.Engine, cfg Config) *Network {
	cfg.fillDefaults()
	if cfg.N <= 0 {
		panic("netstack: Config.N must be positive")
	}
	net := &Network{
		engine: engine,
		cfg:    cfg,
		stats:  NewStats(),
		nodes:  make([]*Node, cfg.N),
		alive:  make([]bool, cfg.N),
		nAlive: cfg.N,
	}
	net.envs.New = func() *sendEnv { return new(sendEnv) }
	if cfg.Mobility == nil {
		net.mob = mobility.NewStaticUniform(engine.NewStream(), cfg.N, cfg.Side)
	} else {
		net.mob = cfg.Mobility
	}
	for i := range net.alive {
		net.alive[i] = true
	}

	switch cfg.Stack {
	case StackSINR:
		m := phy.NewSINRMedium(engine, phy.SINRConfig{
			N: cfg.N, Side: cfg.Side, Pos: net.mob,
			MaxSpeed: net.mob.MaxSpeed(), Params: cfg.PHY,
			CellNoise: cfg.CellNoise,
		})
		net.medium = m
		for i := 0; i < cfg.N; i++ {
			net.nodes[i] = newNode(net, i, mac.NewDCF(engine, i, m.Channel(i), engine.NewStream()))
		}
	case StackIdeal:
		net.geo = newOracleNeighbors(net)
		in := mac.NewIdealNet(engine, cfg.N, net.geo.Neighbors, net.geo.Linked, engine.NewStream())
		in.LossProb = cfg.LossProb
		net.ideal = in
		for i := 0; i < cfg.N; i++ {
			net.nodes[i] = newNode(net, i, in.MAC(i))
		}
	default:
		panic(fmt.Sprintf("netstack: unknown stack kind %d", cfg.Stack))
	}

	switch cfg.Neighbors {
	case NeighborsOracle:
		if net.geo == nil {
			net.geo = newOracleNeighbors(net)
		}
		net.neighbors = net.geo.Neighbors
	case NeighborsHeartbeat:
		net.neighbors = newHeartbeatService(net).Neighbors
	}
	if cfg.RxLossProb > 0 {
		// The stream is derived only when loss is enabled so that loss-free
		// configurations draw the exact same random sequence as before.
		net.lossRng = engine.NewStream()
	}
	return net
}

// SetPartitionFunc installs a partition predicate: every frame whose sender
// and receiver it separates is dropped at the receiver and counted under
// CtrPartitionDrops. Pass nil to heal. The partition is modelled above the
// link layer (like RxLossProb): the MAC may still ACK a frame that the
// network layer then discards — the paper's Section 6.2 failure
// notification therefore does not fire for partition drops, which is what
// makes partitions the adversarial case for quorum accesses.
func (net *Network) SetPartitionFunc(f PartitionFunc) {
	net.partitionFunc = f
}

// SetLinkFaultFunc installs a per-link fault function: every frame arriving
// at a live receiver (delivery or overhear) can be dropped, duplicated, or
// delayed. Pass nil to disable.
// Installing a fault function also arms per-link reorder tracking
// (CtrReorders).
func (net *Network) SetLinkFaultFunc(f LinkFaultFunc) {
	net.faultFunc = f
	if f != nil && net.linkOrder == nil {
		net.linkOrder = make(map[linkKey]*linkOrder)
	}
}

// SetDeliveryObserver installs a hook that sees every frame actually handed
// to a node (after all injected faults), with the transmitting neighbor.
// The check package uses it to verify that no frame is ever delivered to a
// dead node or across an active partition.
func (net *Network) SetDeliveryObserver(f func(from, to int, pkt *Packet)) {
	net.deliveryObserver = f
}

// PendingFaultDeliveries returns how many fault-delayed frames are still in
// flight — the term that closes the conservation identity mid-run.
func (net *Network) PendingFaultDeliveries() int { return net.pendingDelayed }

// deliverRx runs one arriving frame through the injected fault pipeline
// (partition, loss, link faults) and dispatches the surviving copies. It is
// the single choke point for both delivery (overhear=false) and promiscuous
// overhearing (overhear=true), so the conservation counters account for
// every frame that reaches a live receiver.
func (net *Network) deliverRx(n *Node, from int, pkt *Packet, overhear bool) {
	net.stats.Inc(CtrRxArrivals, 1)
	if net.partitionFunc != nil && net.partitionFunc(from, n.id) {
		net.stats.Inc(CtrPartitionDrops, 1)
		return
	}
	if net.lossRng != nil && net.lossRng.Float64() < net.cfg.RxLossProb {
		net.stats.Inc(CtrLossDrops, 1)
		return
	}
	if net.faultFunc == nil {
		net.dispatchRx(n, from, pkt, overhear)
		return
	}
	act := net.faultFunc(from, n.id, pkt)
	if act.Drop {
		net.stats.Inc(CtrFaultDrops, 1)
		return
	}
	copies := 1
	if act.Duplicate {
		copies = 2
		net.stats.Inc(CtrDupes, 1)
		net.stats.Inc(CtrRxArrivals, 1) // the extra copy is its own arrival
	}
	for i := 0; i < copies; i++ {
		lo := net.orderState(from, n.id)
		seq := lo.nextArrival
		lo.nextArrival++
		if act.Delay <= 0 {
			net.noteDelivered(lo, seq)
			net.dispatchRx(n, from, pkt, overhear)
			continue
		}
		// The one delivery that outlives the upcall, and with it the
		// sender's envelope pkt points into: it takes its own copy.
		held := pkt.Clone()
		net.pendingDelayed++
		net.engine.Schedule(act.Delay, func() { //pqlint:allow noalloc(fault-delay path only: the delivery that outlives its upcall takes an event closure with its packet copy)
			net.pendingDelayed--
			net.finishDelayed(n, from, held, overhear, lo, seq)
		})
	}
}

// finishDelayed delivers one fault-delayed frame, re-checking liveness and
// the partition at delivery time: a frame must never reach a node that died
// or was partitioned away while the frame sat in the jitter queue.
func (net *Network) finishDelayed(n *Node, from int, pkt *Packet, overhear bool, lo *linkOrder, seq int64) {
	if !net.alive[n.id] {
		net.stats.Inc(CtrFaultDrops, 1)
		return
	}
	if net.partitionFunc != nil && net.partitionFunc(from, n.id) {
		net.stats.Inc(CtrPartitionDrops, 1)
		return
	}
	net.noteDelivered(lo, seq)
	net.dispatchRx(n, from, pkt, overhear)
}

// dispatchRx hands one surviving frame to the node.
func (net *Network) dispatchRx(n *Node, from int, pkt *Packet, overhear bool) {
	net.stats.Inc(CtrRxDelivered, 1)
	if net.deliveryObserver != nil {
		net.deliveryObserver(from, n.id, pkt)
	}
	if overhear {
		for _, tap := range n.overhear {
			tap(n, pkt, from)
		}
		return
	}
	if h := n.protos[pkt.Proto]; h != nil {
		h.HandlePacket(n, pkt, from) //pqlint:allow noalloc(the hop ends here and the protocol's handler takes over: the forwarding handlers are roots of their own — Oracle.handleData, arrive, pickWalkNext — and TestForwardedHopAllocFree, TestWalkHopAllocsBounded pin what a relayed hop costs)
	}
}

// orderState returns the reorder tracker for one directed link.
func (net *Network) orderState(from, to int) *linkOrder {
	k := linkKey{from: from, to: to}
	lo := net.linkOrder[k]
	if lo == nil {
		lo = &linkOrder{lastDelivered: -1} //pqlint:allow noalloc(fault path only: one tracker per directed link that ever carried a frame under a link fault, kept in the map and reused)
		net.linkOrder[k] = lo
	}
	return lo
}

// noteDelivered records one delivery in link order, counting overtakes.
func (net *Network) noteDelivered(lo *linkOrder, seq int64) {
	if lo == nil {
		return
	}
	if seq < lo.lastDelivered {
		net.stats.Inc(CtrReorders, 1)
		return
	}
	lo.lastDelivered = seq
}

// Engine returns the simulation engine.
func (net *Network) Engine() *sim.Engine { return net.engine }

// Stats returns the shared counters.
func (net *Network) Stats() *Stats { return net.stats }

// Config returns the (default-filled) configuration.
func (net *Network) Config() Config { return net.cfg }

// N returns the total node count (alive or not).
func (net *Network) N() int { return len(net.nodes) }

// Node returns node id's network layer.
func (net *Network) Node(id int) *Node { return net.nodes[id] }

// Position returns node id's current position.
func (net *Network) Position(id int) geom.Point {
	return net.mob.Position(id, net.engine.Now())
}

// Mobility returns the movement model.
func (net *Network) Mobility() mobility.Model { return net.mob }

// Medium returns the shared physical medium (nil for the ideal stack).
// Fault injectors use it to reach the medium's jamming noise.
func (net *Network) Medium() *phy.SINRMedium { return net.medium }

// Range returns the nominal transmission range for neighborhood purposes.
func (net *Network) Range() float64 {
	if net.medium != nil {
		return net.medium.Params().ReceptionRange()
	}
	return Range
}

// Alive reports whether node id is up.
func (net *Network) Alive(id int) bool { return net.alive[id] }

// NumAlive returns the number of live nodes.
func (net *Network) NumAlive() int { return net.nAlive }

// AliveIDs returns the ids of all live nodes, in increasing order. The
// returned slice is reused by the next AliveIDs call; callers that retain
// it across calls must copy it first.
//
//pqlint:noalloc
func (net *Network) AliveIDs() []int {
	net.aliveScratch = net.aliveScratch[:0]
	for id, a := range net.alive {
		if a {
			net.aliveScratch = append(net.aliveScratch, id) //pqlint:allow noalloc(scratch buffer grows to the live-node count once, then is reused)
		}
	}
	return net.aliveScratch
}

// allocEnv takes an envelope from the pool, copies *pkt into it and
// addresses its frame. Envelopes are zeroed at release, so apart from the
// fields set here the frame is field-for-field identical to a fresh
// phy.Frame{}.
//
//pqlint:noalloc
func (net *Network) allocEnv(dst int, pkt *Packet) *sendEnv {
	env := net.envs.Get()
	env.pkt = *pkt
	env.frame.Dst, env.frame.Bytes, env.frame.Payload = dst, pkt.Bytes+IPHeaderBytes, env
	return env
}

// freeEnv recycles an envelope the MAC has finished with (MACSendDone is
// its last touch: by then every receiver has been handed the payload and no
// medium arrival references the frame any longer — end-of-signal events
// fire before the sender's completion upcall at equal times).
//
//pqlint:noalloc
func (net *Network) freeEnv(env *sendEnv) {
	*env = sendEnv{}
	net.envs.Put(env)
}

// RandomAliveID returns a uniformly random live node id.
func (net *Network) RandomAliveID(rng *rand.Rand) int {
	for {
		id := rng.Intn(len(net.nodes))
		if net.alive[id] {
			return id
		}
	}
}

// Fail crashes node id: it stops transmitting, receiving, and interfering.
func (net *Network) Fail(id int) {
	if !net.alive[id] {
		return
	}
	net.alive[id] = false
	net.nAlive--
	net.aliveFlipped(id, false)
}

// Revive (re)joins node id at its current mobility position.
func (net *Network) Revive(id int) {
	if net.alive[id] {
		return
	}
	net.alive[id] = true
	net.nAlive++
	net.aliveFlipped(id, true)
}

// aliveFlipped propagates a liveness flip already recorded in net.alive.
func (net *Network) aliveFlipped(id int, on bool) {
	net.aliveEpoch++
	net.geo.AliveFlipped(id)
	if net.medium != nil {
		net.medium.SetEnabled(id, on)
	}
	if net.ideal != nil {
		net.ideal.SetEnabled(id, on)
	}
}

// Neighbors returns node id's current one-hop neighbor ids. The slice is
// owned by the provider and valid until the next call.
func (net *Network) Neighbors(id int) []int { return net.neighbors(id) }

// NeighborVersion is a counter that advances whenever some node's neighbor
// set may have changed; consumers caching graph-derived state (the oracle
// router's route trees) key on it. This and the two methods below need the
// geometric provider (NeighborsOracle).
func (net *Network) NeighborVersion() uint64 { return net.geo.Version() }

// PrepareNeighbors revalidates every live node's neighbor list so that a
// graph walk within the same event can read the frozen lists (DESIGN.md §15).
func (net *Network) PrepareNeighbors() { net.geo.Prepare() }

// FrozenNeighbors returns id's cached neighbor list without revalidation.
// Valid only after PrepareNeighbors within the same event; read-only.
func (net *Network) FrozenNeighbors(id int) []int { return net.geo.Frozen(id) }

// counterFor maps a protocol to its counter class. Unknown protocols count
// as application traffic.
func counterFor(p ProtocolID) Counter {
	switch p {
	case ProtoBeacon:
		return CtrBeaconMsgs
	case ProtoAODV:
		return CtrRoutingMsgs
	default:
		return CtrAppMsgs
	}
}

// countSend tallies one MAC transmission of pkt under its protocol's
// counter class.
func (net *Network) countSend(pkt *Packet) {
	net.stats.Inc(counterFor(pkt.Proto), 1)
}
