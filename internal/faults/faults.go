// Package faults injects network-axis adversity into a running simulation:
// partitions that heal, link faults (asymmetric loss, duplication, delay
// jitter and the reordering it causes, blackhole relays), and regional
// jamming bursts.
//
// The paper's guarantees (Lemma 5.2's ε-intersection bound, §6.1's decay
// closed forms) are stated for node churn and uniform loss; real ad hoc
// deployments also fail along the network axis — the very adversity that
// motivates probabilistic dissemination in gossip-based ad hoc routing and
// that Timed Quorum Systems handles with explicit consistency machinery.
// This package supplies that half of the threat model as timed, seeded,
// deterministic *episodes* driven by the simulation engine, applied through
// the netstack's receiver-side hook points (SetPartitionFunc and
// SetLinkFaultFunc) and, for jamming on the SINR stack, through the
// medium's noise floor.
//
// All randomness flows from a stream of the network's engine, so a fault
// schedule is bit-for-bit reproducible per seed and safe to run on the
// experiment layer's worker pool.
package faults

import (
	"math/rand"
	"sort"

	"probquorum/internal/geom"
	"probquorum/internal/netstack"
	"probquorum/internal/phy"
	"probquorum/internal/sim"
)

// Kind names a fault class.
type Kind int

// Fault classes.
const (
	// Partition splits the network into groups; cross-group frames drop
	// until the episode heals.
	Partition Kind = iota + 1
	// Loss drops each frame on the faulted links with probability Prob —
	// asymmetric (one link direction) when Asymmetric is set.
	Loss
	// Duplicate delivers an extra copy of each affected frame with
	// probability Prob.
	Duplicate
	// Jitter delays each affected frame by Uniform(0, MaxDelay) with
	// probability Prob, causing reordering.
	Jitter
	// Blackhole makes the selected relays silently drop all transit
	// traffic (frames they would forward) while still accepting frames
	// addressed to them — the classic routing-layer adversary.
	Blackhole
	// Jam raises the noise floor in a disk region: on the SINR stack the
	// jam is physical (receptions corrupt, carriers go busy); on the ideal
	// stack the affected nodes are silenced at the netstack hook instead.
	Jam
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Partition:
		return "partition"
	case Loss:
		return "loss"
	case Duplicate:
		return "duplicate"
	case Jitter:
		return "jitter"
	case Blackhole:
		return "blackhole"
	case Jam:
		return "jam"
	default:
		return "fault"
	}
}

// Episode is one timed fault, active on [Start, Start+Duration) relative to
// the moment the schedule is installed. At most one episode per Kind is in
// force at a time: a later episode of the same kind replaces the earlier.
type Episode struct {
	// Start is when the episode begins, seconds after Schedule.
	Start float64
	// Duration is how long it lasts; the injector heals it afterwards
	// (at once when Duration is not positive).
	Duration float64
	// Kind selects the fault class.
	Kind Kind

	// Groups lists explicit partition member sets (Partition). Nodes in
	// no group share the implicit last group; an id outside [0, N) names
	// no node and is skipped. Nil Groups with Parts ≥ 2 partitions
	// geometrically instead: the deployment area is cut into Parts
	// vertical slabs at episode start.
	Groups [][]int
	// Parts is the geometric partition slab count (default 2).
	Parts int

	// Prob is the per-frame probability for Loss, Duplicate, and Jitter
	// episodes.
	Prob float64
	// Asymmetric restricts a Loss episode to one direction of each link.
	Asymmetric bool
	// MaxDelay bounds a Jitter episode's added delay in seconds.
	MaxDelay float64

	// Nodes selects the affected stations for Blackhole and Jam; nil
	// draws Count live nodes uniformly at episode start. An id outside
	// [0, N) names no node and is skipped.
	Nodes []int
	// Count is how many nodes to draw when Nodes is nil (default 1).
	Count int
	// Radius extends a Jam episode to every node within Radius meters of
	// the first selected node's position at episode start.
	Radius float64
}

// Injector binds fault injection to one network. Construct with New; it
// installs itself on the netstack hook points. One injector per network.
type Injector struct {
	net    *netstack.Network
	engine *sim.Engine
	rng    *rand.Rand
	sinr   *phy.SINRMedium // non-nil when jamming can be physical

	group []int // partition group per node; nil when healed

	lossProb  float64
	lossAsym  bool
	dupProb   float64
	jitProb   float64
	maxDelay  float64
	blackhole map[int]bool
	jammed    map[int]bool // non-SINR jam silencing
}

// New builds an injector for net and installs its partition and link-fault
// hooks. The injector starts with every fault inactive.
func New(net *netstack.Network) *Injector {
	inj := &Injector{
		net:    net,
		engine: net.Engine(),
		rng:    net.Engine().NewStream(),
	}
	inj.sinr = net.Medium()
	net.SetPartitionFunc(inj.Partitioned)
	net.SetLinkFaultFunc(inj.fault)
	return inj
}

// known reports whether id names a node. Episodes come from outside the
// program (the facade's ClusterConfig.Faults), so their ids are checked here.
func (inj *Injector) known(id int) bool { return id >= 0 && id < inj.net.N() }

// Partitioned reports whether a and b are currently in different
// partitions. It doubles as the check package's partition oracle.
func (inj *Injector) Partitioned(a, b int) bool {
	return inj.group != nil && inj.group[a] != inj.group[b]
}

// PartitionSets splits the network into the given member sets; nodes listed
// nowhere form one extra implicit group, and ids that name no node are
// skipped. A previous partition is replaced.
func (inj *Injector) PartitionSets(groups [][]int) {
	g := make([]int, inj.net.N())
	for i := range g {
		g[i] = len(groups) // implicit last group
	}
	for gi, members := range groups {
		for _, id := range members {
			if inj.known(id) {
				g[id] = gi
			}
		}
	}
	inj.group = g
}

// PartitionGeometric cuts the deployment area into parts vertical slabs at
// the nodes' current positions — a geometric partition, the shape radio
// obstacles and terrain create. parts < 2 means 2.
func (inj *Injector) PartitionGeometric(parts int) {
	if parts < 2 {
		parts = 2
	}
	side := inj.net.Config().Side
	g := make([]int, inj.net.N())
	for id := range g {
		slab := int(inj.net.Position(id).X / (side / float64(parts)))
		if slab < 0 {
			slab = 0
		}
		if slab >= parts {
			slab = parts - 1
		}
		g[id] = slab
	}
	inj.group = g
}

// Heal removes the active partition.
func (inj *Injector) Heal() { inj.group = nil }

// Schedule installs timed episodes, each applied at Start and healed at
// Start+Duration (both relative to now). Episodes may overlap across kinds;
// within a kind the latest application wins.
func (inj *Injector) Schedule(eps []Episode) {
	for _, ep := range eps {
		ep := ep
		inj.engine.Schedule(ep.Start, func() { inj.apply(ep) })
		// Never before the apply: a negative Duration would otherwise leave
		// the fault in force for good.
		inj.engine.Schedule(ep.Start+max(ep.Duration, 0), func() { inj.clear(ep.Kind) })
	}
}

// apply puts one episode in force.
func (inj *Injector) apply(ep Episode) {
	switch ep.Kind {
	case Partition:
		if ep.Groups != nil {
			inj.PartitionSets(ep.Groups)
		} else {
			inj.PartitionGeometric(ep.Parts)
		}
	case Loss:
		inj.lossProb, inj.lossAsym = ep.Prob, ep.Asymmetric
	case Duplicate:
		inj.dupProb = ep.Prob
	case Jitter:
		inj.jitProb, inj.maxDelay = ep.Prob, ep.MaxDelay
	case Blackhole:
		inj.blackhole = inj.nodeSet(ep)
	case Jam:
		inj.startJam(ep)
	}
}

// clear ends the episode of one kind.
func (inj *Injector) clear(kind Kind) {
	switch kind {
	case Partition:
		inj.Heal()
	case Loss:
		inj.lossProb = 0
	case Duplicate:
		inj.dupProb = 0
	case Jitter:
		inj.jitProb, inj.maxDelay = 0, 0
	case Blackhole:
		inj.blackhole = nil
	case Jam:
		inj.stopJam()
	}
}

// nodeSet resolves an episode's affected stations.
func (inj *Injector) nodeSet(ep Episode) map[int]bool {
	set := make(map[int]bool)
	if ep.Nodes != nil {
		for _, id := range ep.Nodes {
			if inj.known(id) {
				set[id] = true
			}
		}
		return set
	}
	count := ep.Count
	if count < 1 {
		count = 1
	}
	if count > inj.net.NumAlive() {
		count = inj.net.NumAlive()
	}
	for len(set) < count {
		set[inj.net.RandomAliveID(inj.rng)] = true
	}
	return set
}

// jamNoiseDBm is the jamming noise level injected at each affected SINR
// receiver, well above the −101 dBm thermal floor.
const jamNoiseDBm = -80

// startJam begins a jamming burst: the affected set is the episode's nodes
// plus, with Radius > 0, every node within Radius of the first one.
func (inj *Injector) startJam(ep Episode) {
	set := inj.nodeSet(ep)
	if ep.Radius > 0 && len(set) > 0 {
		var center geom.Point
		ids := make([]int, 0, len(set))
		for id := range set {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		center = inj.net.Position(ids[0])
		r2 := ep.Radius * ep.Radius
		for id := 0; id < inj.net.N(); id++ {
			if geom.Dist2(center, inj.net.Position(id)) <= r2 {
				set[id] = true
			}
		}
	}
	if inj.sinr != nil {
		mw := phy.DBmToMilliwatt(jamNoiseDBm)
		ids := make([]int, 0, len(set))
		for id := range set {
			ids = append(ids, id)
		}
		sort.Ints(ids) // map order must not leak into the event schedule
		for _, id := range ids {
			inj.sinr.SetExtraNoise(id, mw)
		}
		inj.jammed = set // remembered for stopJam
		return
	}
	inj.jammed = set
}

// stopJam ends the jamming burst.
func (inj *Injector) stopJam() {
	if inj.sinr != nil && inj.jammed != nil {
		ids := make([]int, 0, len(inj.jammed))
		for id := range inj.jammed {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		for _, id := range ids {
			inj.sinr.SetExtraNoise(id, 0)
		}
	}
	inj.jammed = nil
}

// fault is the composite link-fault function installed on the netstack.
func (inj *Injector) fault(from, to int, pkt *netstack.Packet) netstack.FaultAction {
	var act netstack.FaultAction
	// A blackhole relay swallows transit traffic it should forward but
	// still accepts frames addressed to it, so it stays plausibly alive.
	if inj.blackhole != nil && inj.blackhole[to] &&
		pkt.Dst != to && pkt.Dst != netstack.Broadcast {
		act.Drop = true
		return act
	}
	// On the non-SINR stacks a jam silences the affected nodes outright.
	if inj.sinr == nil && inj.jammed != nil && (inj.jammed[from] || inj.jammed[to]) {
		act.Drop = true
		return act
	}
	if inj.lossProb > 0 && (!inj.lossAsym || from < to) &&
		inj.rng.Float64() < inj.lossProb {
		act.Drop = true
		return act
	}
	if inj.dupProb > 0 && inj.rng.Float64() < inj.dupProb {
		act.Duplicate = true
	}
	if inj.jitProb > 0 && inj.rng.Float64() < inj.jitProb {
		act.Delay = inj.rng.Float64() * inj.maxDelay
	}
	return act
}
