package aodv

import (
	"testing"

	"probquorum/internal/geom"
	"probquorum/internal/mobility"
	"probquorum/internal/netstack"
	"probquorum/internal/sim"
)

// memberMsg is a routed message shaped like the quorum layer's: the message
// and the inner packet the router carries it in are one object.
type memberMsg struct {
	key string
	pkt netstack.Packet
}

// countSink counts deliveries and retains nothing.
type countSink struct{ n, hops int }

func (s *countSink) HandlePacket(_ *netstack.Node, pkt *netstack.Packet, _ int) {
	s.n++
	s.hops = pkt.Hops
}

// TestForwardedHopAllocFree pins what a routed quorum member costs the host
// end to end on the oracle router: the test's own message with its inner
// packet and nothing from the router — the destination reads the router's
// view, a lookup passes no callback, so no closure — and nothing at all per
// intermediate hop: ten hops cost what one does.
func TestForwardedHopAllocFree(t *testing.T) {
	const hops = 10
	pts := make([]geom.Point, hops+1)
	for i := range pts {
		pts[i] = geom.Point{X: float64(i) * 150}
	}
	e, net, o := oracleWorld(pts, hops*150+1)
	sinks := make([]countSink, len(pts))
	for i := range sinks {
		net.Node(i).Register(testProto, &sinks[i])
	}
	member := func(dst int) func() {
		return func() {
			m := &memberMsg{key: "k"}
			m.pkt = netstack.Packet{Proto: testProto, Src: 0, Dst: dst, Bytes: 512, Payload: m}
			o.Send(0, dst, &m.pkt, nil)
			e.Run(e.Now() + 1)
		}
	}
	cost := func(dst int) float64 {
		send := member(dst)
		for i := 0; i < 8; i++ {
			send() // warm the route tree and the envelope, flight and event pools
		}
		return testing.AllocsPerRun(100, send)
	}
	near, far := cost(1), cost(hops)
	if far > 1 {
		t.Errorf("a member %d hops away costs %.1f objects, want <= 1 (the message with its inner packet)", hops, far)
	}
	if far != near {
		t.Errorf("a member %d hops away costs %.1f objects, one hop away %.1f: an intermediate hop allocates", hops, far, near)
	}
	if s := sinks[hops]; s.n != 8+101 || s.hops != hops {
		t.Errorf("destination saw %d deliveries with Hops=%d, want %d with Hops=%d", s.n, s.hops, 8+101, hops)
	}
	if o.DataDrops != 0 {
		t.Errorf("%d data drops on a connected line", o.DataDrops)
	}
}

// seenFrame is one routed envelope as some observer saw it on the air.
type seenFrame struct{ from, ttl, hops int }

// TestOverhearSeesTheSendersCopy: every reader of a hop — a promiscuous
// neighbor, the fault hook, and on DCF a retransmission after a lost ACK —
// sees the TTL/Hops the transmitting node sent, although the relay has
// forwarded the packet synchronously, inside its own reception upcall, by
// then. Topology: 0 — 1 — 2 on a line, listener 3 beside 0 and 1 and out of
// 2's range; 0 routes one packet to 2.
func TestOverhearSeesTheSendersCopy(t *testing.T) {
	pts := []geom.Point{{X: 0}, {X: 150}, {X: 300}, {X: 75, Y: 50}}
	for _, stack := range []netstack.StackKind{netstack.StackIdeal, netstack.StackSINR} {
		t.Run(stack.String(), func(t *testing.T) {
			e := sim.NewEngine(1)
			net := netstack.New(e, netstack.Config{
				N: len(pts), Side: 400, Mobility: mobility.NewStatic(pts),
				Stack: stack, Neighbors: netstack.NeighborsOracle,
			})
			o := NewOracle(net)
			dst := &countSink{}
			net.Node(2).Register(testProto, dst)

			var overheard, hooked []seenFrame
			net.Node(3).AddOverhearTap(func(_ *netstack.Node, pkt *netstack.Packet, from int) {
				overheard = append(overheard, seenFrame{from, pkt.TTL, pkt.Hops})
			})
			// The hook sees every arrival. On DCF it also jams node 0 for
			// the half millisecond in which the relay's first ACK arrives, so
			// node 0 retransmits a frame the relay has already forwarded.
			jammed := false
			net.SetLinkFaultFunc(func(from, to int, pkt *netstack.Packet) netstack.FaultAction {
				hooked = append(hooked, seenFrame{from, pkt.TTL, pkt.Hops})
				if m := net.Medium(); m != nil && to == 1 && !jammed {
					jammed = true
					m.SetExtraNoise(0, 1e-3)
					e.Schedule(0.5e-3, func() { m.SetExtraNoise(0, 0) })
				}
				return netstack.FaultAction{}
			})

			e.Schedule(0, func() { o.Send(0, 2, innerPkt(0, 2), nil) })
			e.Run(1)

			if dst.n != 1 || dst.hops != 2 {
				t.Fatalf("destination saw %d deliveries with Hops=%d, want 1 with Hops=2", dst.n, dst.hops)
			}
			sent := map[int]seenFrame{ // what each transmitter put on the air
				0: {from: 0, ttl: net.N(), hops: 0},
				1: {from: 1, ttl: net.N() - 1, hops: 1},
			}
			firstHop := 0
			for _, f := range overheard {
				if f != sent[f.from] {
					t.Errorf("overheard %+v, node %d sent %+v", f, f.from, sent[f.from])
				}
				if f.from == 0 {
					firstHop++
				}
			}
			for _, f := range hooked {
				if f != sent[f.from] {
					t.Errorf("fault hook saw %+v, node %d sent %+v", f, f.from, sent[f.from])
				}
			}
			// The scenario must have happened: the listener heard the first
			// hop after the relay forwarded it — in the ideal MAC's listener
			// loop, and on DCF a second time as a retransmission.
			want := 1
			if stack != netstack.StackIdeal {
				want = 2
			}
			if firstHop < want {
				t.Fatalf("listener overheard the first hop %d times, want >= %d (overheard %+v)", firstHop, want, overheard)
			}
		})
	}
}

// reentrantSink is a destination handler that re-enters its router from
// inside the upcall: on the packet whose payload is "outer" it hands its node
// a second routed envelope, as a synchronous arrival would. It records each
// packet as the packet reads when its upcall returns.
type reentrantSink struct{ got []netstack.Packet }

func (s *reentrantSink) HandlePacket(n *netstack.Node, pkt *netstack.Packet, from int) {
	if pkt.Payload == "outer" {
		inner := &netstack.Packet{Proto: testProto, Src: 0, Dst: n.ID(), Bytes: 64, Payload: "inner"}
		n.DeliverLocal(&netstack.Packet{
			Proto: netstack.ProtoRouted, Src: 0, Dst: n.ID(), TTL: 5, Hops: 6, Payload: inner,
		}, from)
	}
	s.got = append(s.got, *pkt)
}

// TestReentrantUpcallKeepsBothPackets: the packet a router hands the
// destination is its own view, reused at the next arrival. A handler that
// re-enters the router from inside its upcall must still read its own
// packet afterwards, and the nested arrival must read the second one: the
// inner call gets a copy. The view is released afterwards, and a later
// packet arrives intact too. On a 3-hop line, on both routers.
func TestReentrantUpcallKeepsBothPackets(t *testing.T) {
	pts := []geom.Point{{X: 0}, {X: 150}, {X: 300}, {X: 450}}
	for _, name := range []string{"oracle", "aodv"} {
		t.Run(name, func(t *testing.T) {
			e := sim.NewEngine(1)
			net := netstack.New(e, netstack.Config{
				N: len(pts), Side: 451, Mobility: mobility.NewStatic(pts), Stack: netstack.StackIdeal,
			})
			var router Router
			var view *upcallView
			if name == "oracle" {
				o := NewOracle(net)
				router, view = o, &o.view
			} else {
				r := New(net, Config{})
				router, view = r, &r.view
			}
			s := &reentrantSink{}
			net.Node(3).Register(testProto, s)
			send := func(payload string) {
				e.Schedule(0, func() {
					router.Send(0, 3, &netstack.Packet{Proto: testProto, Src: 0, Dst: 3, Bytes: 512, Payload: payload}, nil)
				})
				e.Run(e.Now() + 5)
			}
			send("outer")
			send("later")
			want := []netstack.Packet{
				{Proto: testProto, Src: 0, Dst: 3, Bytes: 64, Hops: 7, Payload: "inner"},
				{Proto: testProto, Src: 0, Dst: 3, Bytes: 512, Hops: 3, Payload: "outer"},
				{Proto: testProto, Src: 0, Dst: 3, Bytes: 512, Hops: 3, Payload: "later"},
			}
			if len(s.got) != len(want) {
				t.Fatalf("destination read %+v, want %+v", s.got, want)
			}
			for i := range want {
				if s.got[i] != want[i] {
					t.Errorf("upcall %d read %+v, want %+v", i, s.got[i], want[i])
				}
			}
			if view.busy || view.pkt != (netstack.Packet{}) {
				t.Errorf("view not released after the upcalls: %+v", *view)
			}
		})
	}
}
