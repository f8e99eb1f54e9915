package main

import (
	"probquorum/internal/aodv"
	"probquorum/internal/check"
	"probquorum/internal/churn"
	"probquorum/internal/geom"
	"probquorum/internal/membership"
	"probquorum/internal/mobility"
	"probquorum/internal/netstack"
	"probquorum/internal/quorum"
	"probquorum/internal/sim"
)

// This file is the only place the harness constructs simulator objects, and
// it does so only through the exported constructors of internal/…, never
// through internal/experiment: an API collapse in the simulator has to be
// followed here and nowhere else in bench/.

// routerKind selects the routing layer of a workload.
type routerKind int

const (
	routerAODV        routerKind = iota + 1 // aodv.New: discovery floods, control traffic
	routerOracleBFS                         // aodv.NewOracle: per-hop BFS, no cache
	routerOracleTrees                       // aodv.NewOracle + EnableRouteCache
)

// stack is one assembled simulation: every layer the harness reads a counter
// from or calls into.
type stack struct {
	wl      *workload
	engine  *sim.Engine
	net     *netstack.Network
	router  aodv.Router // what quorum.New was handed (the tracing decorator in a traced run)
	oracle  *aodv.Oracle
	routing *aodv.Routing
	members *membership.Service
	sys     *quorum.System
	churn   *churn.Process // nil without churn
	suite   *check.Suite
	qa, ql  int // |Qa|, |Qℓ|
}

// buildStack assembles wl's stack on a fresh serial engine (Workers and
// Shards stay 0). wrap, when non-nil, decorates the router before the quorum
// layer sees it — the traced run's only difference in construction.
func buildStack(wl *workload, wrap func(aodv.Router) aodv.Router) *stack {
	st := &stack{wl: wl, engine: sim.NewEngine(wl.netSeed)}

	cfg := netstack.Config{
		N: wl.n, Stack: wl.stack, CellNoise: wl.cellNoise, Neighbors: wl.neighbors,
	}
	if wl.speedMax > 0 {
		// Side is derived here because the waypoint model needs it before
		// netstack.New fills its own default with the same rule (range 200 m,
		// average degree 10).
		cfg.Side = geom.AreaSide(wl.n, 200, 10)
		cfg.Mobility = mobility.NewWaypoint(st.engine.NewStream(), wl.n, mobility.WaypointConfig{
			MinSpeed: wl.speedMin, MaxSpeed: wl.speedMax, Pause: wl.pauseSecs, Side: cfg.Side,
		}, nil)
	}
	st.net = netstack.New(st.engine, cfg)

	switch wl.router {
	case routerAODV:
		st.routing = aodv.New(st.net, aodv.DefaultConfig())
		st.router = st.routing
	case routerOracleBFS:
		st.oracle = aodv.NewOracle(st.net)
		st.router = st.oracle
	case routerOracleTrees:
		st.oracle = aodv.NewOracle(st.net)
		// TTL 0: the oracle neighbour provider's version counter is exact.
		st.oracle.EnableRouteCache(aodv.RouteCacheConfig{})
		st.router = st.oracle
	}
	if wrap != nil {
		st.router = wrap(st.router)
	}

	st.qa, st.ql = quorum.SizeForEpsilon(wl.n, wl.epsilon, wl.sizeRatio)
	view := membership.DefaultViewSize(wl.n)
	if st.qa > view {
		view = st.qa // Pick returns at most the view: a smaller one would truncate |Qa|
	}
	if wl.lookup == quorum.Random && st.ql > view {
		view = st.ql
	}
	st.members = membership.New(st.net, membership.Config{ViewSize: view, Lazy: wl.lazyMembers})

	st.sys = quorum.New(st.net, st.router, st.members, quorum.Config{
		AdvertiseStrategy: quorum.Random, LookupStrategy: wl.lookup,
		AdvertiseSize: st.qa, LookupSize: st.ql,
		EarlyHalt: true, Salvation: true, ReplyPathReduction: true,
		ReplyLocalRepair: wl.localRepair,
		LookupTimeout:    wl.lookupTimeout, AdvertiseTimeoutSecs: wl.advertiseTimeout,
		LookupRetries: wl.lookupRetries,
	})
	st.suite = check.NewSuite(st.net, st.sys)

	if wl.churnRate > 0 {
		// No fresh pool: every join reboots a crashed node, which loses its
		// store and its membership view exactly as a new node would.
		st.churn = churn.New(st.net, churn.Config{FailRate: wl.churnRate, JoinRate: wl.churnRate})
		st.churn.OnJoin(func(id int) {
			st.sys.ResetNode(id)
			st.members.RefreshNode(id)
		})
	}
	return st
}

// dataDrops reads the routing layer's dropped-data counter, whichever router
// the workload uses.
func (st *stack) dataDrops() uint64 {
	if st.oracle != nil {
		return st.oracle.DataDrops
	}
	return st.routing.DataDrops
}

// newKernelEngine returns a bare engine whose queue already holds depth
// far-future events, for timing Schedule+Run at a realistic heap depth.
func newKernelEngine(depth int) *sim.Engine {
	e := sim.NewEngine(1)
	for i := 0; i < depth; i++ {
		e.Schedule(1e9+float64(i), func() {})
	}
	return e
}

// newKernelGrid indexes net's current positions in a grid of the given cell
// size, for timing range queries at the workload's size and density.
func newKernelGrid(net *netstack.Network, cell float64) *geom.Grid {
	g := geom.NewGrid(net.N(), net.Config().Side, cell)
	for id := 0; id < net.N(); id++ {
		g.Update(id, net.Position(id))
	}
	return g
}
