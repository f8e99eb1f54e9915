package aodv

import (
	"math"
	"testing"
	"unsafe"

	"probquorum/internal/geom"
	"probquorum/internal/mobility"
	"probquorum/internal/netstack"
	"probquorum/internal/sim"
)

const testProto netstack.ProtocolID = 50

type sink struct {
	pkts []*netstack.Packet
	from []int
}

func (s *sink) HandlePacket(_ *netstack.Node, pkt *netstack.Packet, from int) {
	s.pkts = append(s.pkts, pkt.Clone()) // valid for the upcall only
	s.from = append(s.from, from)
}

// lineWorld builds a static line of n nodes gap meters apart with AODV on
// the ideal stack, and a sink for testProto at every node.
func lineWorld(e *sim.Engine, n int, gap float64) (*netstack.Network, *Routing, []*sink) {
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Point{X: float64(i) * gap, Y: 0}
	}
	net := netstack.New(e, netstack.Config{
		N: n, Side: float64(n)*gap + 1, Mobility: mobility.NewStatic(pts),
		Stack: netstack.StackIdeal,
	})
	r := New(net, Config{})
	sinks := make([]*sink, n)
	for i := range sinks {
		sinks[i] = &sink{}
		net.Node(i).Register(testProto, sinks[i])
	}
	return net, r, sinks
}

func innerPkt(src, dst int) *netstack.Packet {
	return &netstack.Packet{Proto: testProto, Src: src, Dst: dst, Bytes: 512, Payload: "data"}
}

func TestMultihopDelivery(t *testing.T) {
	e := sim.NewEngine(1)
	_, r, sinks := lineWorld(e, 6, 150) // 5 hops end to end
	var okResult *bool
	e.Schedule(0, func() {
		r.Send(0, 5, innerPkt(0, 5), func(ok bool) { okResult = &ok })
	})
	e.Run(10)
	if len(sinks[5].pkts) != 1 {
		t.Fatalf("destination received %d packets, want 1", len(sinks[5].pkts))
	}
	if got := sinks[5].pkts[0].Hops; got != 5 {
		t.Fatalf("delivered packet Hops = %d, want 5", got)
	}
	if okResult == nil || !*okResult {
		t.Fatal("send callback should report success")
	}
	if !r.HasRoute(0, 5) {
		t.Fatal("origin should hold a route after delivery")
	}
	// Intermediate sinks must NOT see the routed payload.
	for i := 1; i <= 4; i++ {
		if len(sinks[i].pkts) != 0 {
			t.Fatalf("intermediate node %d received the app payload", i)
		}
	}
}

func TestSelfDelivery(t *testing.T) {
	e := sim.NewEngine(1)
	_, r, sinks := lineWorld(e, 2, 150)
	e.Schedule(0, func() { r.Send(0, 0, innerPkt(0, 0), nil) })
	e.Run(1)
	if len(sinks[0].pkts) != 1 {
		t.Fatal("self-addressed packet not delivered locally")
	}
}

func TestExpandingRing(t *testing.T) {
	e := sim.NewEngine(1)
	_, r, sinks := lineWorld(e, 8, 150) // 7 hops away: needs ring escalation
	e.Schedule(0, func() { r.Send(0, 7, innerPkt(0, 7), nil) })
	e.Run(20)
	if len(sinks[7].pkts) != 1 {
		t.Fatal("far destination not reached")
	}
	// TTL start 1 cannot reach 7 hops: at least two rings must have run.
	if r.Discoveries < 2 {
		t.Fatalf("Discoveries = %d, want ≥ 2 (expanding ring)", r.Discoveries)
	}
}

func TestRouteReuseAvoidsRediscovery(t *testing.T) {
	e := sim.NewEngine(1)
	net, r, sinks := lineWorld(e, 5, 150)
	e.Schedule(0, func() { r.Send(0, 4, innerPkt(0, 4), nil) })
	e.Run(10)
	discoveriesAfterFirst := r.Discoveries
	routingAfterFirst := net.Stats().Get(netstack.CtrRoutingMsgs)
	e.Schedule(0, func() { r.Send(0, 4, innerPkt(0, 4), nil) })
	e.Run(20)
	if len(sinks[4].pkts) != 2 {
		t.Fatalf("destination received %d packets, want 2", len(sinks[4].pkts))
	}
	if r.Discoveries != discoveriesAfterFirst {
		t.Fatal("second send re-discovered despite a cached route")
	}
	if net.Stats().Get(netstack.CtrRoutingMsgs) != routingAfterFirst {
		t.Fatal("second send generated routing overhead")
	}
}

func TestUnreachableDestinationFails(t *testing.T) {
	e := sim.NewEngine(1)
	pts := []geom.Point{{X: 0, Y: 0}, {X: 150, Y: 0}, {X: 5000, Y: 0}}
	net := netstack.New(e, netstack.Config{
		N: 3, Side: 6000, Mobility: mobility.NewStatic(pts), Stack: netstack.StackIdeal,
	})
	r := New(net, Config{})
	var okResult *bool
	e.Schedule(0, func() {
		r.Send(0, 2, innerPkt(0, 2), func(ok bool) { okResult = &ok })
	})
	e.Run(60)
	if okResult == nil {
		t.Fatal("no routing notification for unreachable destination")
	}
	if *okResult {
		t.Fatal("send to unreachable destination reported success")
	}
}

func TestPendingPacketsShareDiscovery(t *testing.T) {
	e := sim.NewEngine(1)
	_, r, sinks := lineWorld(e, 4, 150)
	e.Schedule(0, func() {
		r.Send(0, 3, innerPkt(0, 3), nil)
		r.Send(0, 3, innerPkt(0, 3), nil)
		r.Send(0, 3, innerPkt(0, 3), nil)
	})
	e.Run(10)
	if len(sinks[3].pkts) != 3 {
		t.Fatalf("destination received %d packets, want 3", len(sinks[3].pkts))
	}
}

func TestScopedSendWithinScope(t *testing.T) {
	e := sim.NewEngine(1)
	_, r, sinks := lineWorld(e, 4, 150)
	var okResult *bool
	e.Schedule(0, func() {
		r.SendScoped(0, 2, innerPkt(0, 2), 3, func(ok bool) { okResult = &ok })
	})
	e.Run(10)
	if len(sinks[2].pkts) != 1 {
		t.Fatal("scoped send within range failed")
	}
	if okResult == nil || !*okResult {
		t.Fatal("scoped send should succeed")
	}
}

func TestScopedSendBeyondScopeFailsFast(t *testing.T) {
	e := sim.NewEngine(1)
	_, r, sinks := lineWorld(e, 8, 150)
	var okResult *bool
	e.Schedule(0, func() {
		r.SendScoped(0, 7, innerPkt(0, 7), 3, func(ok bool) { okResult = &ok })
	})
	e.Run(30)
	if okResult == nil {
		t.Fatal("scoped send gave no result")
	}
	if *okResult {
		t.Fatal("scoped send beyond TTL should fail")
	}
	if len(sinks[7].pkts) != 0 {
		t.Fatal("packet escaped the TTL scope")
	}
	// A scoped discovery must not escalate to a full flood.
	if r.Discoveries != 1 {
		t.Fatalf("Discoveries = %d, want 1 (no escalation)", r.Discoveries)
	}
}

// TestUnscopedSendOutlivesScopedDiscovery: a Send that joins a scoped
// discovery of the same destination is not bound by its TTL. When the scoped
// attempt ends, the scoped op fails and the unscoped one carries the ring on
// and delivers, as the same Send does on its own.
func TestUnscopedSendOutlivesScopedDiscovery(t *testing.T) {
	e := sim.NewEngine(1)
	_, r, sinks := lineWorld(e, 8, 150)
	var scopedOK, plainOK *bool
	e.Schedule(0, func() {
		r.SendScoped(0, 7, innerPkt(0, 7), 3, func(ok bool) { scopedOK = &ok })
		r.Send(0, 7, innerPkt(0, 7), func(ok bool) { plainOK = &ok })
	})
	e.Run(30)
	if scopedOK == nil || *scopedOK {
		t.Fatal("the scoped send beyond its TTL should fail")
	}
	if plainOK == nil || !*plainOK {
		t.Fatal("the unscoped send that joined the scoped discovery failed with it")
	}
	if len(sinks[7].pkts) != 1 {
		t.Fatalf("destination received %d packets, want 1", len(sinks[7].pkts))
	}
}

func TestTransitTapObservesAndConsumes(t *testing.T) {
	e := sim.NewEngine(1)
	_, r, sinks := lineWorld(e, 5, 150)
	var seen []int
	r.AddTransitTap(2, func(at *netstack.Node, inner *netstack.Packet) bool {
		seen = append(seen, at.ID())
		return true // consume
	})
	e.Schedule(0, func() { r.Send(0, 4, innerPkt(0, 4), nil) })
	e.Run(10)
	if len(seen) != 1 || seen[0] != 2 {
		t.Fatalf("tap observations = %v, want [2]", seen)
	}
	if len(sinks[4].pkts) != 0 {
		t.Fatal("consumed packet still reached the destination")
	}
}

func TestTransitTapPassThrough(t *testing.T) {
	e := sim.NewEngine(1)
	_, r, sinks := lineWorld(e, 5, 150)
	var seen []int
	for id := 1; id <= 3; id++ {
		id := id
		r.AddTransitTap(id, func(at *netstack.Node, inner *netstack.Packet) bool {
			seen = append(seen, id)
			return false
		})
	}
	e.Schedule(0, func() { r.Send(0, 4, innerPkt(0, 4), nil) })
	e.Run(10)
	if len(seen) != 3 {
		t.Fatalf("taps saw %v, want all of 1,2,3", seen)
	}
	if len(sinks[4].pkts) != 1 {
		t.Fatal("pass-through packet did not reach the destination")
	}
}

func TestLinkBreakTriggersRediscovery(t *testing.T) {
	e := sim.NewEngine(1)
	// Two disjoint paths 0→1→4 and 0→2→4 (diamond). After 1 dies, a
	// retry must deliver via 2.
	pts := []geom.Point{
		{X: 0, Y: 0},      // 0
		{X: 140, Y: 60},   // 1
		{X: 140, Y: -60},  // 2
		{X: 1000, Y: 500}, // 3 (bystander, far)
		{X: 280, Y: 0},    // 4
	}
	net := netstack.New(e, netstack.Config{
		N: 5, Side: 2000, Mobility: mobility.NewStatic(pts), Stack: netstack.StackIdeal,
	})
	r := New(net, Config{})
	s := &sink{}
	net.Node(4).Register(testProto, s)
	e.Schedule(0, func() { r.Send(0, 4, innerPkt(0, 4), nil) })
	e.Run(10)
	if len(s.pkts) != 1 {
		t.Fatal("initial delivery failed")
	}
	// Kill whichever relay the route uses; then send again.
	e.Schedule(0, func() {
		if r.HasRoute(0, 4) {
			// invalidate by killing both possible relays' one: find which
			// next hop is in use by sending after failing node 1.
			net.Fail(1)
		}
	})
	var okResult *bool
	e.Schedule(1, func() {
		r.Send(0, 4, innerPkt(0, 4), func(ok bool) { okResult = &ok })
	})
	e.Run(60)
	if len(s.pkts) != 2 {
		t.Fatalf("delivery after link break: got %d packets, want 2", len(s.pkts))
	}
	if okResult == nil || !*okResult {
		t.Fatal("retry after link break should eventually succeed")
	}
}

func TestGridAnyPairReachable(t *testing.T) {
	e := sim.NewEngine(5)
	// 5x5 grid, 140 m spacing: richly connected.
	var pts []geom.Point
	for y := 0; y < 5; y++ {
		for x := 0; x < 5; x++ {
			pts = append(pts, geom.Point{X: float64(x) * 140, Y: float64(y) * 140})
		}
	}
	net := netstack.New(e, netstack.Config{
		N: 25, Side: 700, Mobility: mobility.NewStatic(pts), Stack: netstack.StackIdeal,
	})
	r := New(net, Config{})
	s := make([]*sink, 25)
	for i := range s {
		s[i] = &sink{}
		net.Node(i).Register(testProto, s[i])
	}
	pairs := [][2]int{{0, 24}, {4, 20}, {12, 0}, {7, 23}, {24, 0}}
	for i, pr := range pairs {
		pr := pr
		e.Schedule(float64(i), func() { r.Send(pr[0], pr[1], innerPkt(pr[0], pr[1]), nil) })
	}
	e.Run(30)
	for _, pr := range pairs {
		found := false
		for _, pkt := range s[pr[1]].pkts {
			if pkt.Src == pr[0] {
				found = true
			}
		}
		if !found {
			t.Fatalf("pair %v not delivered", pr)
		}
	}
}

func TestMobileDeliveryWithSINRStack(t *testing.T) {
	// End-to-end smoke test on the full-fidelity stack: DCF MAC + SINR
	// medium + heartbeat neighbors + waypoint mobility.
	e := sim.NewEngine(9)
	mob := mobility.NewWaypoint(e.NewStream(), 30, mobility.WaypointConfig{
		MinSpeed: 0.5, MaxSpeed: 2, Pause: 30, Side: 800,
	}, nil)
	net := netstack.New(e, netstack.Config{
		N: 30, Side: 800, Mobility: mob, Stack: netstack.StackSINR,
	})
	r := New(net, Config{})
	s := make([]*sink, 30)
	for i := range s {
		s[i] = &sink{}
		net.Node(i).Register(testProto, s[i])
	}
	delivered := 0
	for i := 0; i < 10; i++ {
		src, dst := i, 29-i
		e.Schedule(30+float64(i)*2, func() { r.Send(src, dst, innerPkt(src, dst), nil) })
	}
	e.Run(120)
	for i := 0; i < 10; i++ {
		for _, pkt := range s[29-i].pkts {
			if pkt.Src == i {
				delivered++
				break
			}
		}
	}
	if delivered < 7 {
		t.Fatalf("only %d/10 routed packets delivered on the SINR stack", delivered)
	}
	if net.Stats().Get(netstack.CtrRoutingMsgs) == 0 {
		t.Fatal("no routing overhead counted")
	}
}

func TestOracleMultihopDelivery(t *testing.T) {
	e := sim.NewEngine(1)
	pts := make([]geom.Point, 6)
	for i := range pts {
		pts[i] = geom.Point{X: float64(i) * 150, Y: 0}
	}
	net := netstack.New(e, netstack.Config{
		N: 6, Side: 1000, Mobility: mobility.NewStatic(pts), Stack: netstack.StackIdeal,
	})
	o := NewOracle(net)
	s := &sink{}
	net.Node(5).Register(testProto, s)
	var okResult *bool
	e.Schedule(0, func() { o.Send(0, 5, innerPkt(0, 5), func(ok bool) { okResult = &ok }) })
	e.Run(5)
	if len(s.pkts) != 1 || s.pkts[0].Hops != 5 {
		t.Fatalf("oracle delivery: %d pkts", len(s.pkts))
	}
	if okResult == nil || !*okResult {
		t.Fatal("oracle send not ok")
	}
	// Zero routing control overhead — the whole point of the baseline.
	if net.Stats().Get(netstack.CtrRoutingMsgs) != 0 {
		t.Fatal("oracle produced routing control messages")
	}
	if !o.HasRoute(0, 5) {
		t.Fatal("HasRoute false on a connected line")
	}
}

func TestOracleScopedAndUnreachable(t *testing.T) {
	e := sim.NewEngine(1)
	pts := []geom.Point{{X: 0, Y: 0}, {X: 150, Y: 0}, {X: 300, Y: 0}, {X: 450, Y: 0}, {X: 5000, Y: 0}}
	net := netstack.New(e, netstack.Config{
		N: 5, Side: 6000, Mobility: mobility.NewStatic(pts), Stack: netstack.StackIdeal,
	})
	o := NewOracle(net)
	s := &sink{}
	net.Node(3).Register(testProto, s)
	var scoped, far *bool
	e.Schedule(0, func() {
		o.SendScoped(0, 3, innerPkt(0, 3), 2, func(ok bool) { scoped = &ok }) // 3 hops away
		o.Send(0, 4, innerPkt(0, 4), func(ok bool) { far = &ok })             // disconnected
	})
	e.Run(5)
	if scoped == nil || *scoped {
		t.Fatal("scoped send beyond TTL should fail")
	}
	if far == nil || *far {
		t.Fatal("send to a disconnected node should fail")
	}
	if len(s.pkts) != 0 {
		t.Fatal("scoped packet escaped its TTL")
	}
	if o.DataDrops == 0 {
		t.Fatal("drops not counted")
	}
}

func TestOracleTransitTap(t *testing.T) {
	e := sim.NewEngine(1)
	pts := make([]geom.Point, 4)
	for i := range pts {
		pts[i] = geom.Point{X: float64(i) * 150, Y: 0}
	}
	net := netstack.New(e, netstack.Config{
		N: 4, Side: 700, Mobility: mobility.NewStatic(pts), Stack: netstack.StackIdeal,
	})
	o := NewOracle(net)
	s := &sink{}
	net.Node(3).Register(testProto, s)
	var seen []int
	o.AddTransitTap(1, func(at *netstack.Node, inner *netstack.Packet) bool {
		seen = append(seen, at.ID())
		return false
	})
	o.AddTransitTap(2, func(at *netstack.Node, inner *netstack.Packet) bool {
		seen = append(seen, at.ID())
		return true // consume
	})
	e.Schedule(0, func() { o.Send(0, 3, innerPkt(0, 3), nil) })
	e.Run(5)
	if len(seen) != 2 || seen[0] != 1 || seen[1] != 2 {
		t.Fatalf("taps saw %v", seen)
	}
	if len(s.pkts) != 0 {
		t.Fatal("consumed packet reached destination")
	}
}

func TestOracleAvoidsDeadNodes(t *testing.T) {
	e := sim.NewEngine(1)
	// Diamond: 0-(1|2)-3; kill 1, oracle must route via 2.
	pts := []geom.Point{{X: 0, Y: 0}, {X: 140, Y: 60}, {X: 140, Y: -60}, {X: 280, Y: 0}}
	net := netstack.New(e, netstack.Config{
		N: 4, Side: 600, Mobility: mobility.NewStatic(pts), Stack: netstack.StackIdeal,
	})
	o := NewOracle(net)
	net.Fail(1)
	s := &sink{}
	net.Node(3).Register(testProto, s)
	e.Schedule(0, func() { o.Send(0, 3, innerPkt(0, 3), nil) })
	e.Run(5)
	if len(s.pkts) != 1 {
		t.Fatal("oracle failed to route around a dead node")
	}
}

func TestIntermediateNodeReplies(t *testing.T) {
	// After 0→4 establishes routes, node 1 holds a fresh route to 4; a
	// discovery from... 0 again would reuse. Instead: 0 discovers 4, then
	// we expire nothing and let node 0 re-discover after invalidating
	// only its own entry — the intermediate node's cached route answers
	// without the flood reaching the destination's neighborhood.
	e := sim.NewEngine(1)
	net, r, sinks := lineWorld(e, 6, 150)
	e.Schedule(0, func() { r.Send(0, 5, innerPkt(0, 5), nil) })
	e.Run(10)
	if len(sinks[5].pkts) != 1 {
		t.Fatal("setup delivery failed")
	}
	// Invalidate the origin's route only (simulate local expiry).
	r.nodes[0].routes[5].valid = false
	before := net.Stats().Get(netstack.CtrRoutingMsgs)
	e.Schedule(0, func() { r.Send(0, 5, innerPkt(0, 5), nil) })
	e.Run(20)
	if len(sinks[5].pkts) != 2 {
		t.Fatal("redelivery failed")
	}
	// The re-discovery should be answered by an intermediate node's
	// cached route: far cheaper than the first full expanding-ring.
	cost := net.Stats().Get(netstack.CtrRoutingMsgs) - before
	if cost > 12 {
		t.Fatalf("re-discovery cost %d routing msgs; intermediate reply should keep it small", cost)
	}
}

func TestRouteExpiry(t *testing.T) {
	e := sim.NewEngine(1)
	_, r, sinks := lineWorld(e, 4, 150)
	e.Schedule(0, func() { r.Send(0, 3, innerPkt(0, 3), nil) })
	e.Run(10)
	if !r.HasRoute(0, 3) {
		t.Fatal("no route after delivery")
	}
	// Idle past activeRouteTimeout: the route must expire.
	e.Run(e.Now() + activeRouteTimeout + 5)
	if r.HasRoute(0, 3) {
		t.Fatal("route did not expire")
	}
	// But it still works again on demand.
	e.Schedule(0, func() { r.Send(0, 3, innerPkt(0, 3), nil) })
	e.Run(e.Now() + 20)
	if len(sinks[3].pkts) != 2 {
		t.Fatal("post-expiry delivery failed")
	}
}

func TestRouteRefreshOnUse(t *testing.T) {
	e := sim.NewEngine(1)
	_, r, sinks := lineWorld(e, 4, 150)
	timeout := float64(activeRouteTimeout)
	e.Schedule(0, func() { r.Send(0, 3, innerPkt(0, 3), nil) })
	e.Run(10)
	// Keep using the route at 60% of the timeout: it must never expire.
	for i := 0; i < 5; i++ {
		e.Schedule(timeout*0.6, func() { r.Send(0, 3, innerPkt(0, 3), nil) })
		e.Run(e.Now() + timeout*0.6 + 2)
	}
	if len(sinks[3].pkts) != 6 {
		t.Fatalf("delivered %d, want 6", len(sinks[3].pkts))
	}
	if !r.HasRoute(0, 3) {
		t.Fatal("actively used route expired")
	}
}

func TestRERRPropagatesUpstream(t *testing.T) {
	// 0→1→2→3; node 3 dies; node 2's send fails → RERR reaches 1 and 0,
	// invalidating their routes to 3.
	e := sim.NewEngine(1)
	net, r, sinks := lineWorld(e, 4, 150)
	e.Schedule(0, func() { r.Send(0, 3, innerPkt(0, 3), nil) })
	e.Run(3)
	if len(sinks[3].pkts) != 1 {
		t.Fatal("setup delivery failed")
	}
	net.Fail(3)
	// Sending again while routes are still fresh: the data dies at node
	// 2, which broadcasts RERR; the origin-side retry re-discovers,
	// fails, and reports.
	var okResult *bool
	e.Schedule(1, func() { r.Send(0, 3, innerPkt(0, 3), func(ok bool) { okResult = &ok }) })
	e.Run(e.Now() + 60)
	if r.HasRoute(1, 3) || r.HasRoute(2, 3) {
		t.Fatal("stale routes to the dead node survived the RERR")
	}
	_ = okResult // the first hop may still succeed (failure is downstream)
	if r.DataDrops == 0 {
		t.Fatal("no data drop recorded at the break")
	}
}

// TestNoRetryDataOnLinkBreak: Send re-discovers once when the first hop of
// its route breaks, but a scoped send (the paper's TTL-3 local repair) is a
// single attempt: with the route established and the destination dead, it
// fails without a re-discovery.
func TestNoRetryDataOnLinkBreak(t *testing.T) {
	e := sim.NewEngine(1)
	pts := []geom.Point{{X: 0, Y: 0}, {X: 150, Y: 0}}
	net := netstack.New(e, netstack.Config{
		N: 2, Side: 400, Mobility: mobility.NewStatic(pts), Stack: netstack.StackIdeal,
	})
	r := New(net, Config{})
	s := &sink{}
	net.Node(1).Register(testProto, s)
	e.Schedule(0, func() { r.SendScoped(0, 1, innerPkt(0, 1), 3, nil) })
	e.Run(5)
	if len(s.pkts) != 1 || !r.HasRoute(0, 1) {
		t.Fatal("setup: scoped send did not deliver and leave a route")
	}
	net.Fail(1)
	var okResult *bool
	discBefore := r.Discoveries
	e.Schedule(0, func() { r.SendScoped(0, 1, innerPkt(0, 1), 3, func(ok bool) { okResult = &ok }) })
	e.Run(e.Now() + 30)
	if okResult == nil || *okResult {
		t.Fatal("scoped send to a dead neighbor should fail")
	}
	if r.Discoveries != discBefore {
		t.Fatalf("scoped send re-discovered after the link broke (%d discoveries)", r.Discoveries-discBefore)
	}
}

func TestSequenceNumberFreshness(t *testing.T) {
	e := sim.NewEngine(1)
	_, r, _ := lineWorld(e, 3, 150)
	st := r.nodes[0]
	// Install a route with seq 10, then offer a stale seq-5 update: it
	// must be rejected; a fresh seq-11 update must win even with more hops.
	r.updateRoute(st, 2, 1, 2, 10, true)
	r.updateRoute(st, 2, 1, 1, 5, true)
	if st.routes[2].seq != 10 {
		t.Fatal("stale sequence number overwrote a fresher route")
	}
	r.updateRoute(st, 2, 1, 7, 11, true)
	if st.routes[2].seq != 11 || st.routes[2].hops != 7 {
		t.Fatal("fresher sequence number rejected")
	}
	// Equal seq with fewer hops improves the route.
	r.updateRoute(st, 2, 1, 3, 11, true)
	if st.routes[2].hops != 3 {
		t.Fatal("shorter same-seq route rejected")
	}
}

// cached is st's duplicate-RREQ cache, oldest first.
func cached(st *nodeState) []seenAt { return st.seenOrder.Items() }

// TestRREQDedupHorizon: a copy of a request inside PATH_DISCOVERY_TIME is
// still a duplicate (it must not touch the reverse route), and the cache lets
// go of an entry once a later insert finds it older than that.
func TestRREQDedupHorizon(t *testing.T) {
	e := sim.NewEngine(1)
	net, r, _ := lineWorld(e, 5, 150)
	n, st := net.Node(2), r.nodes[2]
	horizon := r.cfg.pathDiscoveryTime()
	if math.Abs(horizon-5.6) > 1e-9 {
		t.Fatalf("PATH_DISCOVERY_TIME = %g s with the default constants, want 5.6", horizon)
	}
	// copyOf hands node 2 request (0, 7) from neighbour from, each copy with
	// a fresher originator sequence number so an accepted one shows in the
	// reverse route's next hop.
	seq := uint32(10)
	copyOf := func(id uint32, from int) {
		seq++
		req := &rreqMsg{ID: id, Orig: 0, OrigSeq: seq, Targets: []rreqTarget{{Dst: 4}}}
		r.handleRREQ(n, st, &netstack.Packet{Proto: netstack.ProtoAODV, Src: from, TTL: 5, Hops: 1, Payload: req}, req, from)
	}
	e.At(0, func() { copyOf(7, 1) })
	e.At(horizon-0.1, func() { copyOf(7, 3) })
	e.Run(horizon)
	if hop := st.routes[0].nextHop; hop != 1 {
		t.Fatalf("a copy inside the horizon was processed: reverse route now via %d, want 1", hop)
	}
	if live := cached(st); len(live) != 1 {
		t.Fatalf("cache holds %v after one request and its copy, want one entry", live)
	}
	// Another request after the horizon drains (0, 7) on its way in.
	e.At(horizon+0.1, func() { copyOf(8, 1) })
	e.Run(horizon + 1)
	if live := cached(st); st.seen(rreqKey(0, 7)) || len(live) != 1 || live[0].key != rreqKey(0, 8) {
		t.Fatalf("cache after the horizon: %v, want only (0, 8)", live)
	}
}

// TestRREQDedupCacheBounded: under sustained discovery every node's cache
// holds what one horizon of floods put there, not the run's history, and a
// reset node starts empty.
func TestRREQDedupCacheBounded(t *testing.T) {
	e := sim.NewEngine(1)
	// Five connected nodes and one out of everyone's reach: every discovery
	// of it runs the whole ring search and fails.
	pts := []geom.Point{{X: 0}, {X: 150}, {X: 300}, {X: 450}, {X: 600}, {X: 9000}}
	net := netstack.New(e, netstack.Config{
		N: len(pts), Side: 10000, Mobility: mobility.NewStatic(pts), Stack: netstack.StackIdeal,
	})
	r := New(net, Config{})
	const horizonRuns = 60
	horizon := r.cfg.pathDiscoveryTime()
	peak := 0
	for at := 0.0; at < horizonRuns*horizon; at += 0.5 {
		src := int(at*2) % 5
		e.At(at, func() {
			r.Send(src, 5, innerPkt(src, 5), nil)
			for _, st := range r.nodes {
				if live := len(cached(st)); live > peak {
					peak = live
				}
			}
		})
	}
	e.Run(horizonRuns * horizon)
	for _, st := range r.nodes[:5] {
		live := cached(st)
		if len(live) == 0 {
			t.Fatalf("node %d caches no request", st.id)
		}
		newest := live[len(live)-1].at
		keys := map[uint64]bool{}
		for i, s := range live {
			if keys[s.key] || s.at+horizon < newest || (i > 0 && s.at < live[i-1].at) {
				t.Fatalf("node %d: entry %d %+v is cached twice, out of order, or older than the horizon before the newest (%g)", st.id, i, s, newest)
			}
			keys[s.key] = true
		}
	}
	// Every request reaches all five nodes, so a cache that never forgot
	// would hold all of them.
	if r.Discoveries < 500 || uint64(peak)*10 > r.Discoveries {
		t.Fatalf("%d requests flooded, largest cache ever %d entries: want ≥ 500 and a cache under a tenth of them", r.Discoveries, peak)
	}

	r.ResetNode(2)
	st := r.nodes[2]
	if n := st.seenOrder.Len(); n != 0 {
		t.Fatalf("reset node keeps %d queued requests", n)
	}
	r.markSeen(st, rreqKey(0, 1))
	if st.seenOrder.Len() != 1 || !st.seen(rreqKey(0, 1)) {
		t.Fatal("reset node's cache does not take a new entry")
	}
}

// rerrsFrom records the RERR payloads node src broadcasts, once per frame.
func rerrsFrom(net *netstack.Network, src int) *[][]unreachable {
	var got [][]unreachable
	net.SetDeliveryObserver(func(from, to int, pkt *netstack.Packet) {
		if msg, ok := pkt.Payload.(*rerrMsg); ok && from == src && to == src-1 {
			got = append(got, msg.Unreachable)
		}
	})
	return &got
}

// TestLinkLessUnknownDestination: a forwarding node that finds no route to
// a destination it never learned broadcasts a RERR with seq 0 and learns
// nothing; one that learned the destination without a sequence number
// (seq 0, known) bumps it to 1, as RFC 3561 §6.11 asks of a known route.
func TestLinkLessUnknownDestination(t *testing.T) {
	e := sim.NewEngine(1)
	net, r, _ := lineWorld(e, 4, 150)
	got := rerrsFrom(net, 1)
	st := r.nodes[1]
	r.linkLess(st, 3)
	e.Run(1)
	if len(*got) != 1 || len((*got)[0]) != 1 || (*got)[0][0] != (unreachable{dst: 3, seq: 0}) {
		t.Fatalf("RERR for a never-learned destination carries %v, want [[{3 0}]]", *got)
	}
	if st.entry(3) != nil || st.routes != nil {
		t.Fatal("linkLess created a routing entry for a destination never learned")
	}

	r.updateRoute(st, 2, 2, 1, 0, false) // learned, no sequence number
	r.linkLess(st, 2)
	e.Run(2)
	if len(*got) != 2 || (*got)[1][0] != (unreachable{dst: 2, seq: 1}) {
		t.Fatalf("RERR for a destination learned with seq 0 carries %v, want {2 1}", (*got)[1:])
	}
	if rt := st.entry(2); rt == nil || rt.seq != 1 {
		t.Fatalf("known entry after linkLess: %+v, want seq 1", rt)
	}
	if st.entry(3) != nil {
		t.Fatal("the never-learned destination became known")
	}
}

// TestResetNodeForgetsEveryRoute: after a node reboots, no destination is
// known to it, though it had routes to every other node of the line.
func TestResetNodeForgetsEveryRoute(t *testing.T) {
	e := sim.NewEngine(1)
	_, r, sinks := lineWorld(e, 5, 150)
	e.Schedule(0, func() { r.Send(0, 4, innerPkt(0, 4), nil) })
	e.Schedule(1, func() { r.Send(4, 0, innerPkt(4, 0), nil) })
	e.Run(5)
	if len(sinks[4].pkts) != 1 || len(sinks[0].pkts) != 1 {
		t.Fatal("setup: the line did not deliver both ways")
	}
	st := r.nodes[2]
	for dst := range 5 {
		if dst != 2 && st.entry(dst) == nil {
			t.Fatalf("setup: the middle node never learned %d", dst)
		}
	}
	r.ResetNode(2)
	for dst := range 5 {
		if st.entry(dst) != nil || r.HasRoute(2, dst) {
			t.Fatalf("after ResetNode, destination %d is still known: %+v", dst, st.routes[dst])
		}
	}
}

// TestHasRouteUnknownAndInvalid: HasRoute is false for a destination never
// learned, for one whose route was invalidated and for one whose route
// expired, and true only for a valid, live entry.
func TestHasRouteUnknownAndInvalid(t *testing.T) {
	e := sim.NewEngine(1)
	_, r, _ := lineWorld(e, 4, 150)
	st := r.nodes[0]
	if r.HasRoute(0, 3) {
		t.Fatal("HasRoute true before any route was learned")
	}
	r.updateRoute(st, 1, 1, 1, 0, false)
	r.updateRoute(st, 2, 1, 2, 4, true)
	r.updateRoute(st, 3, 1, 3, 4, true)
	if !r.HasRoute(0, 1) || !r.HasRoute(0, 2) || !r.HasRoute(0, 3) {
		t.Fatal("HasRoute false for freshly installed routes")
	}
	st.routes[2].valid = false
	st.routes[3].expiry = -1
	if r.HasRoute(0, 2) || r.HasRoute(0, 3) {
		t.Fatal("HasRoute true for an invalidated or expired route")
	}
	if st.entry(2) == nil || st.entry(3) == nil {
		t.Fatal("invalid entries forgot they were learned")
	}
	if unsafe.Sizeof(route{}) != 24 {
		t.Fatalf("a routing entry is %d bytes; New documents 24", unsafe.Sizeof(route{}))
	}
}
