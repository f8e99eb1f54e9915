package aodv

import (
	"reflect"
	"slices"
	"testing"

	"probquorum/internal/geom"
	"probquorum/internal/mobility"
	"probquorum/internal/netstack"
	"probquorum/internal/sim"
)

// relayWorld is a static ideal-MAC network of AODV nodes at pts.
func relayWorld(pts ...geom.Point) (*sim.Engine, *netstack.Network, *Routing) {
	e := sim.NewEngine(4)
	net := netstack.New(e, netstack.Config{
		N: len(pts), Side: 10000, Mobility: mobility.NewStatic(pts), Stack: netstack.StackIdeal,
	})
	return e, net, New(net, Config{})
}

// relayAllocs returns the objects one call of relay allocates, each call
// followed by a simulated second that delivers what it sent, after warming
// the tables, the duplicate caches and the pools.
func relayAllocs(e *sim.Engine, relay func()) float64 {
	step := func() {
		relay()
		e.Run(e.Now() + 1)
	}
	for i := 0; i < 16; i++ {
		step()
	}
	return testing.AllocsPerRun(100, step)
}

// routingMsgs returns the AODV control transmissions net has counted.
func routingMsgs(net *netstack.Network) int64 {
	return net.Stats().Get(netstack.CtrRoutingMsgs)
}

// TestRelayedRREQAllocFree pins what a relay costs the host: nothing. The
// relay re-broadcasts the rreqMsg it received, and the jittered broadcast
// and its event come from pools. Node 1 relays the requests of node 0 for
// node 2, which nobody can reach, and node 0 drops the TTL-1 copy it hears
// back.
func TestRelayedRREQAllocFree(t *testing.T) {
	e, net, r := relayWorld(geom.Point{X: 0}, geom.Point{X: 150}, geom.Point{X: 9000})
	n, st := net.Node(1), r.nodes[1]
	req := &rreqMsg{Orig: 0, OrigSeq: 1, Targets: []rreqTarget{{Dst: 2}}}
	pkt := &netstack.Packet{Proto: netstack.ProtoAODV, Src: 0, Dst: netstack.Broadcast, TTL: 2, Payload: req}
	relayed := 0
	net.SetDeliveryObserver(func(from, _ int, p *netstack.Packet) {
		if from == 1 && p.Payload == req {
			relayed++
		}
	})
	relay := func() {
		req.ID++ // a new request each time, so the duplicate cache lets it through
		r.handleRREQ(n, st, pkt, req, 0)
	}
	sent := routingMsgs(net)
	if avg := relayAllocs(e, relay); avg != 0 {
		t.Fatalf("a relayed RREQ allocates %.2f objects, want 0", avg)
	}
	if got := routingMsgs(net) - sent; got != 117 || relayed != 117 {
		t.Fatalf("%d relays went on the air, %d of them carrying the received request, in 117 runs; want 117 and 117", got, relayed)
	}
}

// TestTrimmedRREQForwardAllocs pins a relay that answers some targets of a
// request and forwards the rest: the answer's rrepMsg, the forward's target
// list and its rreqMsg, three objects and nothing else. Node 1 is one target
// of node 0's request; node 2, out of reach, is the other. A second trimmed
// forward before the first goes on the air leaves the first one's targets
// alone.
func TestTrimmedRREQForwardAllocs(t *testing.T) {
	e, net, r := relayWorld(geom.Point{X: 0}, geom.Point{X: 150}, geom.Point{X: 9000}, geom.Point{X: 9150})
	n, st := net.Node(1), r.nodes[1]
	req := &rreqMsg{Orig: 0, OrigSeq: 1, Targets: []rreqTarget{{Dst: 1}, {Dst: 2}}}
	pkt := &netstack.Packet{Proto: netstack.ProtoAODV, Src: 0, Dst: netstack.Broadcast, TTL: 2, Payload: req}
	var fwd *rreqMsg
	var fwds []*rreqMsg
	net.SetDeliveryObserver(func(from, to int, p *netstack.Packet) {
		if m, ok := p.Payload.(*rreqMsg); ok && from == 1 {
			fwd = m
			if fwds != nil && to == 0 {
				fwds = append(fwds, m)
			}
		}
	})
	relay := func() {
		req.ID++
		r.handleRREQ(n, st, pkt, req, 0)
	}
	if avg := relayAllocs(e, relay); avg != 3 {
		t.Fatalf("a trimmed RREQ forward allocates %.2f objects, want exactly 3 (the reply, the forward and its targets)", avg)
	}
	if fwd == req || !reflect.DeepEqual(fwd.Targets, []rreqTarget{{Dst: 2}}) || fwd.ID != req.ID {
		t.Fatalf("forwarded %+v, want a new request %d naming node 2 alone", fwd, req.ID)
	}

	fwds = []*rreqMsg{}
	relay()
	other := &rreqMsg{ID: 1, Orig: 0, OrigSeq: 1, Targets: []rreqTarget{{Dst: 1}, {Dst: 3}}}
	r.handleRREQ(n, st, &netstack.Packet{Proto: netstack.ProtoAODV, Src: 0, Dst: netstack.Broadcast, TTL: 2, Payload: other}, other, 0)
	e.Run(e.Now() + 1)
	var named [][]rreqTarget
	for _, m := range fwds {
		named = append(named, m.Targets)
	}
	// The jitter decides which goes on the air first.
	slices.SortFunc(named, func(a, b []rreqTarget) int { return a[0].Dst - b[0].Dst })
	if want := [][]rreqTarget{{{Dst: 2}}, {{Dst: 3}}}; !reflect.DeepEqual(named, want) {
		t.Fatalf("two trimmed forwards reached node 0 naming %v, want %v", named, want)
	}
}

// TestRelayedRREPAllocFree: node 1 passes node 2's reply on to node 0, the
// originator, at no cost to the host — the rrepMsg it received goes on, and
// the hop's completion comes from a pool.
func TestRelayedRREPAllocFree(t *testing.T) {
	e, net, r := relayWorld(geom.Point{X: 0}, geom.Point{X: 150}, geom.Point{X: 300})
	st := r.nodes[1]
	rep := &rrepMsg{Orig: 0, Dst: 2, DstSeq: 1}
	pkt := &netstack.Packet{Proto: netstack.ProtoAODV, Src: 2, Dst: 0, Payload: rep}
	r.updateRoute(st, 0, 0, 1, 1, true) // the reverse route the request left
	relayed := 0
	net.SetDeliveryObserver(func(from, to int, p *netstack.Packet) {
		if from == 1 && to == 0 && p.Payload == rep && p.Hops == 1 {
			relayed++
		}
	})
	relay := func() {
		r.touchRoute(st, 0) // keep the reverse route alive across the runs
		r.handleRREP(st, pkt, rep, 2)
	}
	if avg := relayAllocs(e, relay); avg != 0 {
		t.Fatalf("a relayed RREP allocates %.2f objects, want 0", avg)
	}
	if relayed != 117 {
		t.Fatalf("node 0 got the received reply at Hops 1 from node 1 %d times in 117 runs", relayed)
	}
	if rt := r.validRoute(r.nodes[0], 2); rt == nil || rt.hops != 2 {
		t.Fatalf("node 0's route to node 2 is %+v, want 2 hops", rt)
	}
}

// TestRelayedRERRAllocFree: node 1 routes to the unreachable nodes 3 and 4
// through node 2, which announces both lost. Node 1 propagates every entry
// by re-broadcasting the rerrMsg it received, and nodes 0 and 2, which route
// nothing through node 1, propagate nothing; neither allocates. A node that
// routes only to node 3 through node 2 forwards a new message naming it
// alone, which a later partial forward does not overwrite.
func TestRelayedRERRAllocFree(t *testing.T) {
	e, net, r := relayWorld(geom.Point{X: 0}, geom.Point{X: 150}, geom.Point{X: 300},
		geom.Point{X: 9000}, geom.Point{X: 9150})
	n, st := net.Node(1), r.nodes[1]
	msg := &rerrMsg{Unreachable: []unreachable{{dst: 3, seq: 2}, {dst: 4, seq: 2}}}
	var heard []*rerrMsg
	relayed := 0
	net.SetDeliveryObserver(func(from, _ int, p *netstack.Packet) {
		if m, ok := p.Payload.(*rerrMsg); ok && from == 1 {
			if m == msg {
				relayed++
			} else {
				heard = append(heard, m)
			}
		}
	})

	sent := routingMsgs(net)
	if avg := relayAllocs(e, func() { r.handleRERR(n, st, msg, 2) }); avg != 0 {
		t.Fatalf("a RERR that propagates nothing allocates %.2f objects, want 0", avg)
	}
	if got := routingMsgs(net) - sent; got != 0 {
		t.Fatalf("a node with no route through the sender sent %d RERRs, want 0", got)
	}

	all := func() {
		r.updateRoute(st, 3, 2, 2, 1, true)
		r.updateRoute(st, 4, 2, 2, 1, true)
		r.handleRERR(n, st, msg, 2)
	}
	sent = routingMsgs(net)
	if avg := relayAllocs(e, all); avg != 0 {
		t.Fatalf("a RERR relayed whole allocates %.2f objects, want 0", avg)
	}
	if got := routingMsgs(net) - sent; got != 117 || relayed != 2*117 || len(heard) != 0 {
		t.Fatalf("%d RERRs sent, %d receptions of the received message, %d of others in 117 runs; want 117, 234 and 0",
			got, relayed, len(heard))
	}

	partial := func(dst int) {
		r.updateRoute(st, dst, 2, 2, 1, true)
		r.handleRERR(n, st, msg, 2)
		e.Run(e.Now() + 1)
	}
	partial(3)
	partial(4)
	var named [][]unreachable
	for _, m := range heard {
		named = append(named, m.Unreachable)
	}
	if want := [][]unreachable{{{3, 2}}, {{3, 2}}, {{4, 2}}, {{4, 2}}}; !reflect.DeepEqual(named, want) {
		t.Fatalf("partial forwards heard naming %v, want node 3 alone twice, then node 4 alone twice", named)
	}
}

// TestRelayedHopCounts: on a line of seven nodes, the hop counts a relay
// derives from the packet's Hops give every node the line distance — to the
// originator along the request's reverse path, and to the destination along
// the reply's, whether the destination answers (HopCount 0) or an
// intermediate node does on its behalf from a route of three hops.
func TestRelayedHopCounts(t *testing.T) {
	e := sim.NewEngine(1)
	net, r, sinks := lineWorld(e, 7, 150)
	hops := func(id, dst int) int {
		if rt := r.validRoute(r.nodes[id], dst); rt != nil {
			return int(rt.hops)
		}
		return -1
	}
	e.At(0, func() { r.Send(0, 6, innerPkt(0, 6), nil) })
	e.Run(5)
	if len(sinks[6].pkts) != 1 {
		t.Fatal("the discovery from node 0 to node 6 delivered nothing")
	}
	for id := 1; id <= 6; id++ {
		if got := hops(id, 0); got != id {
			t.Errorf("node %d: reverse route to node 0 has %d hops, want %d", id, got, id)
		}
	}
	for id := 0; id <= 5; id++ {
		if got := hops(id, 6); got != 6-id {
			t.Errorf("node %d: route to node 6 has %d hops, want %d", id, got, 6-id)
		}
	}

	// Nodes 0, 1 and 2 lose their routes to node 6; node 3 keeps its
	// three-hop one and answers the next request on node 6's behalf.
	for id := 0; id <= 2; id++ {
		r.nodes[id].routes[6].valid = false
	}
	var answers []rrepMsg
	net.SetDeliveryObserver(func(from, _ int, p *netstack.Packet) {
		if rep, ok := p.Payload.(*rrepMsg); ok && from == 3 && p.Hops == 0 {
			answers = append(answers, *rep)
		}
	})
	e.At(6, func() { r.Send(0, 6, innerPkt(0, 6), nil) })
	e.Run(8)
	if len(sinks[6].pkts) != 2 {
		t.Fatal("the second send from node 0 to node 6 was not delivered")
	}
	if len(answers) != 1 || answers[0].HopCount != 3 {
		t.Fatalf("node 3 answered %+v, want one reply with HopCount 3", answers)
	}
	for id := 1; id <= 3; id++ {
		if got := hops(id, 0); got != id {
			t.Errorf("after the second discovery node %d: reverse route to node 0 has %d hops, want %d", id, got, id)
		}
	}
	for id := 0; id <= 2; id++ {
		if got := hops(id, 6); got != 6-id {
			t.Errorf("after node 3's answer node %d: route to node 6 has %d hops, want %d", id, got, 6-id)
		}
	}
}
