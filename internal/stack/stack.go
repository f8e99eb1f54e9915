// Package stack assembles one simulation: engine → netstack (mobility,
// medium, MAC, neighbours) → routing → membership → quorum system, with the
// invariant suite armed on it. The facade, every experiment runner and the
// tests build through Build, so a rule about how the layers fit together is
// written once, here (DESIGN.md §16).
package stack

import (
	"probquorum/internal/aodv"
	"probquorum/internal/check"
	"probquorum/internal/churn"
	"probquorum/internal/faults"
	"probquorum/internal/geom"
	"probquorum/internal/membership"
	"probquorum/internal/mobility"
	"probquorum/internal/netstack"
	"probquorum/internal/quorum"
	"probquorum/internal/sim"
)

// Spec describes a stack. The zero value of every field but N is usable.
type Spec struct {
	// N is the initial population. JoinSlots further node slots are
	// allocated behind it for nodes that join later; they start failed and
	// viewless, and are the fresh pool of Churn.
	N, JoinSlots int
	// Seed seeds the engine.
	Seed int64
	// Link selects medium, MAC, neighbour discovery and loss injection.
	// Build owns N, Side and Mobility: the area is sized for the initial
	// population at Link.AvgDegree (default 10), not for N+JoinSlots.
	Link netstack.Config
	// SpeedMax > 0 moves all slots by random waypoint at speedMin–SpeedMax
	// m/s with pauseSecs pauses; zero is a static uniform placement.
	SpeedMax float64
	// OracleRouting replaces AODV by the zero-overhead oracle router, which
	// answers from cached route trees where the neighbor lists are exact and
	// nothing moves (aodv.NewOracle).
	OracleRouting bool
	// Members configures the membership service; Build owns ViewSize: the
	// paper's ⌈2√N⌉, or the size of a quorum drawn from the view where that
	// is larger.
	Members membership.Config
	// Quorum is the strategy mix, sizing and techniques.
	Quorum quorum.Config
}

// Stack is an assembled simulation. Operations issued through Suite are
// checked; Suite.Final gives the verdict.
type Stack struct {
	Engine  *sim.Engine
	Net     *netstack.Network
	Router  aodv.Router
	Members *membership.Service
	Sys     *quorum.System
	Suite   *check.Suite

	n int // initial population; ids n..Net.N()-1 are the join slots
}

// pauseSecs is the waypoint pause (paper: 30) and speedMin the slowest
// waypoint speed in m/s.
const (
	pauseSecs = 30
	speedMin  = 0.5
)

// Build assembles sp. Engine streams are drawn in layer order (mobility,
// netstack, routing, membership); Faults and Churn draw theirs when called.
func Build(sp Spec) *Stack {
	engine := sim.NewEngine(sp.Seed)

	total := sp.N + sp.JoinSlots
	cfg := sp.Link
	if cfg.AvgDegree == 0 {
		cfg.AvgDegree = 10
	}
	cfg.N = total
	cfg.Side = geom.AreaSide(sp.N, netstack.Range, cfg.AvgDegree)
	if sp.SpeedMax > 0 {
		cfg.Mobility = mobility.NewWaypoint(engine.NewStream(), total, mobility.WaypointConfig{
			MinSpeed: speedMin, MaxSpeed: sp.SpeedMax, Pause: pauseSecs, Side: cfg.Side,
		}, nil)
	}
	net := netstack.New(engine, cfg)

	var router aodv.Router
	if sp.OracleRouting {
		router = aodv.NewOracle(net)
	} else {
		acfg := aodv.DefaultConfig()
		// The ring-search timeouts assume NodeTraversalTime per hop; keep
		// them consistent with an inflated ideal hop latency.
		if t := 2 * cfg.IdealHopDelay; t > acfg.NodeTraversalTime {
			acfg.NodeTraversalTime = t
		}
		router = aodv.New(net, acfg)
	}

	// membership.Pick returns at most the view, so a quorum drawn from it
	// that is larger than the paper's 2√n view would be truncated without a
	// word. RANDOM and RANDOM-OPT advertise through the same draw of |Qa|; of
	// the lookups only RANDOM draws |Qℓ| (RANDOM-OPT draws its ~ln n targets).
	mcfg := sp.Members
	mcfg.ViewSize = membership.DefaultViewSize(sp.N)
	if sp.Quorum.AdvertiseStrategy.DrawsFromView() {
		mcfg.ViewSize = max(mcfg.ViewSize, sp.Quorum.AdvertiseSize)
	}
	if sp.Quorum.LookupStrategy == quorum.Random {
		mcfg.ViewSize = max(mcfg.ViewSize, sp.Quorum.LookupSize)
	}
	members := membership.New(net, mcfg)
	sys := quorum.New(net, router, members, sp.Quorum)
	for id := sp.N; id < total; id++ {
		net.Fail(id)
		// Release the view the initial refresh drew for the slot: the draw
		// keeps the shared stream where it was, a dead slot holds no view.
		members.RefreshNode(id)
	}
	return &Stack{
		Engine: engine, Net: net, Router: router, Members: members, Sys: sys,
		Suite: check.NewSuite(net, sys), n: sp.N,
	}
}

// Faults builds the stack's fault injector and makes it the suite's
// partition oracle, so a delivery across an active partition is a violation.
// Call it once, where the injector's stream belongs in the caller's order.
func (st *Stack) Faults() *faults.Injector {
	inj := faults.New(st.Net)
	st.Suite.SetPartitionOracle(inj.Partitioned)
	return inj
}

// Churn builds a churn process over the stack: joins take the join slots
// first, then reboot crashed nodes, and either way the joiner comes up with
// an empty store, no AODV state and a fresh view bootstrapped at once —
// everyone else's views catch up at the next refresh, stale in between as a
// real service's would be. The oracle router keeps no per-node state.
func (st *Stack) Churn(cfg churn.Config) *churn.Process {
	proc := churn.New(st.Net, cfg)
	fresh := make([]int, 0, st.Net.N()-st.n)
	for id := st.n; id < st.Net.N(); id++ {
		fresh = append(fresh, id)
	}
	proc.SetFreshPool(fresh)
	routing, _ := st.Router.(*aodv.Routing)
	proc.OnJoin(func(id int) {
		if routing != nil {
			routing.ResetNode(id)
		}
		st.Sys.ResetNode(id)
		st.Members.RefreshNode(id)
	})
	return proc
}
