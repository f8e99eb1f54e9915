package aodv

import (
	"reflect"
	"testing"

	"probquorum/internal/geom"
	"probquorum/internal/mobility"
	"probquorum/internal/netstack"
	"probquorum/internal/sim"
)

// sentRREQs records every request node src transmits, once per frame (as
// the neighbour to receives it), with the frame's size.
func sentRREQs(net *netstack.Network, src, to int) *[]*netstack.Packet {
	var got []*netstack.Packet
	net.SetDeliveryObserver(func(from, rx int, pkt *netstack.Packet) {
		if _, ok := pkt.Payload.(*rreqMsg); ok && from == src && rx == to {
			cp := *pkt
			got = append(got, &cp)
		}
	})
	return &got
}

func targetDsts(req *rreqMsg) []int {
	var dsts []int
	for _, t := range req.Targets {
		dsts = append(dsts, t.Dst)
	}
	return dsts
}

// TestPrefetchFloodsOnceForEveryTarget: a prefetch of three unrouted members
// of a line runs one discovery — one RREQ per ring, naming every member not
// yet answered — and takes exactly the rings a lone discovery of the
// farthest member takes. All three members get routes, and the sends that
// follow join the discovery instead of starting one of their own.
func TestPrefetchFloodsOnceForEveryTarget(t *testing.T) {
	lone := func() uint64 {
		e := sim.NewEngine(1)
		_, r, _ := lineWorld(e, 7, 150)
		e.Schedule(0, func() { r.Send(0, 6, innerPkt(0, 6), nil) })
		e.Run(5)
		return r.Discoveries
	}()

	e := sim.NewEngine(1)
	net, r, sinks := lineWorld(e, 7, 150)
	rreqs := sentRREQs(net, 0, 1)
	members := []int{2, 4, 6}
	ok := map[int]bool{}
	e.Schedule(0, func() {
		r.PrefetchRoutes(0, members)
		if r.Discoveries != 1 {
			t.Fatalf("prefetch originated %d rings, want 1", r.Discoveries)
		}
		for _, m := range members {
			r.Send(0, m, innerPkt(0, m), func(sent bool) { ok[m] = sent })
		}
		if r.Discoveries != 1 {
			t.Fatalf("the sends after the prefetch originated %d rings of their own", r.Discoveries-1)
		}
	})
	e.Run(5)

	if r.Discoveries != lone {
		t.Fatalf("the wave took %d rings, a lone discovery of the farthest member %d", r.Discoveries, lone)
	}
	if uint64(len(*rreqs)) != r.Discoveries {
		t.Fatalf("origin transmitted %d requests for %d rings", len(*rreqs), r.Discoveries)
	}
	first := (*rreqs)[0]
	if got := targetDsts(first.Payload.(*rreqMsg)); !reflect.DeepEqual(got, members) || first.Bytes != rreqBytes+2*rreqTargetBytes {
		t.Fatalf("first request names %v in %d bytes, want %v in %d", got, first.Bytes, members, rreqBytes+2*rreqTargetBytes)
	}
	if last := (*rreqs)[len(*rreqs)-1]; !reflect.DeepEqual(targetDsts(last.Payload.(*rreqMsg)), []int{6}) || last.Bytes != rreqBytes {
		t.Fatalf("last request names %v in %d bytes, want only the farthest member in %d", targetDsts(last.Payload.(*rreqMsg)), last.Bytes, rreqBytes)
	}
	for _, m := range members {
		if !ok[m] || len(sinks[m].pkts) != 1 || !r.HasRoute(0, m) {
			t.Fatalf("member %d: sent %v, delivered %d, route %v", m, ok[m], len(sinks[m].pkts), r.HasRoute(0, m))
		}
	}
	if len(r.nodes[0].disc) != 0 {
		t.Fatalf("%d targets still registered after the wave", len(r.nodes[0].disc))
	}
}

// TestPrefetchSkips: a prefetch starts nothing for the origin itself, a
// repeated member, a member with a valid route or one already under
// discovery, and nothing at all from a dead origin.
func TestPrefetchSkips(t *testing.T) {
	e := sim.NewEngine(1)
	net, r, _ := lineWorld(e, 6, 150)
	rreqs := sentRREQs(net, 0, 1)
	e.Schedule(0, func() {
		r.updateRoute(r.nodes[0], 1, 1, 1, 0, false)
		r.Send(0, 5, innerPkt(0, 5), nil)
		r.PrefetchRoutes(0, []int{0, 1, 5, 3, 3, 4})
		net.Fail(2)
		r.PrefetchRoutes(2, []int{0, 4})
	})
	e.Run(0.02)
	if r.Discoveries != 2 || len(*rreqs) != 2 {
		t.Fatalf("%d rings, %d requests from the origin; want 2 and 2", r.Discoveries, len(*rreqs))
	}
	var named [][]int
	for _, p := range *rreqs {
		named = append(named, targetDsts(p.Payload.(*rreqMsg)))
	}
	if !reflect.DeepEqual(named, [][]int{{5}, {3, 4}}) && !reflect.DeepEqual(named, [][]int{{3, 4}, {5}}) {
		t.Fatalf("the origin's requests name %v, want the send's [5] and the prefetch's [3 4]", named)
	}
}

// TestIntermediateAnswersSomeTargets: a node holding a fresh route to one
// target of a request answers for it (§6.6.2), and forwards a copy naming
// only the others — among them a target its route is staler than the
// request asks for. A request it can answer whole is not forwarded.
func TestIntermediateAnswersSomeTargets(t *testing.T) {
	e := sim.NewEngine(1)
	net, r, _ := lineWorld(e, 7, 150)
	n, st := net.Node(1), r.nodes[1]
	r.updateRoute(st, 4, 2, 3, 5, true)
	r.updateRoute(st, 5, 2, 4, 5, true)
	var reps []rrepMsg
	var fwds []*netstack.Packet
	net.SetDeliveryObserver(func(from, to int, pkt *netstack.Packet) {
		if from != 1 {
			return
		}
		switch msg := pkt.Payload.(type) {
		case *rrepMsg:
			reps = append(reps, *msg)
		case *rreqMsg:
			if to == 2 {
				cp := *pkt
				fwds = append(fwds, &cp)
			}
		}
	})
	ask := func(id uint32, targets ...rreqTarget) {
		req := &rreqMsg{ID: id, Orig: 0, OrigSeq: id, Targets: targets}
		r.handleRREQ(n, st, &netstack.Packet{Proto: netstack.ProtoAODV, Src: 0, TTL: 2, Payload: req}, req, 0)
	}
	e.At(0, func() {
		ask(1, rreqTarget{Dst: 4, DstSeq: 5, HasDSeq: true}, rreqTarget{Dst: 5, DstSeq: 6, HasDSeq: true}, rreqTarget{Dst: 6})
	})
	e.Run(1)
	if want := []rrepMsg{{Orig: 0, Dst: 4, DstSeq: 5, HopCount: 3}}; !reflect.DeepEqual(reps, want) {
		t.Fatalf("replies %+v, want %+v", reps, want)
	}
	if len(fwds) != 1 {
		t.Fatalf("%d forwarded copies, want 1", len(fwds))
	}
	fwd := fwds[0].Payload.(*rreqMsg)
	wantRest := []rreqTarget{{Dst: 5, DstSeq: 6, HasDSeq: true}, {Dst: 6}}
	if !reflect.DeepEqual(fwd.Targets, wantRest) || fwds[0].Bytes != rreqBytes+rreqTargetBytes || fwds[0].TTL != 1 || fwd.HopCount != 1 {
		t.Fatalf("forwarded %+v in %d bytes at TTL %d, hop count %d; want %+v in %d bytes at TTL 1, hop count 1",
			fwd.Targets, fwds[0].Bytes, fwds[0].TTL, fwd.HopCount, wantRest, rreqBytes+rreqTargetBytes)
	}

	e.At(2, func() { ask(2, rreqTarget{Dst: 4}, rreqTarget{Dst: 5}) })
	e.Run(3)
	if len(reps) != 3 || len(fwds) != 1 {
		t.Fatalf("a request answered whole: %d replies in all, %d forwarded copies; want 3 and still 1", len(reps), len(fwds))
	}
}

// TestUnreachableTargetFailsAfterFullRetries: a wave with one target out of
// everyone's reach delivers to the reachable ones, and fails the unreachable
// one's packets only after the full ring search and its network-wide
// retries — the same rings, at the same time, as a lone discovery of it.
func TestUnreachableTargetFailsAfterFullRetries(t *testing.T) {
	pts := []geom.Point{{X: 0}, {X: 150}, {X: 300}, {X: 450}, {X: 600}, {X: 9000}}
	world := func() (*sim.Engine, *Routing, []*sink) {
		e := sim.NewEngine(1)
		net := netstack.New(e, netstack.Config{
			N: len(pts), Side: 10000, Mobility: mobility.NewStatic(pts), Stack: netstack.StackIdeal,
		})
		sinks := make([]*sink, len(pts))
		for i := range sinks {
			sinks[i] = &sink{}
			net.Node(i).Register(testProto, sinks[i])
		}
		return e, New(net, Config{}), sinks
	}

	e, r, _ := world()
	var loneAt float64
	e.Schedule(0, func() { r.Send(0, 5, innerPkt(0, 5), func(bool) { loneAt = e.Now() }) })
	e.Run(60)
	loneRings := r.Discoveries

	e, r, sinks := world()
	type outcome struct {
		ok bool
		at float64
	}
	got := map[int][]outcome{}
	e.Schedule(0, func() {
		r.PrefetchRoutes(0, []int{2, 5, 4})
		for _, m := range []int{2, 5, 4, 5} {
			r.Send(0, m, innerPkt(0, m), func(ok bool) { got[m] = append(got[m], outcome{ok, e.Now()}) })
		}
	})
	e.Run(60)
	for _, m := range []int{2, 4} {
		if len(got[m]) != 1 || !got[m][0].ok || len(sinks[m].pkts) != 1 {
			t.Fatalf("reachable member %d: outcomes %v, %d delivered", m, got[m], len(sinks[m].pkts))
		}
	}
	if want := []outcome{{false, loneAt}, {false, loneAt}}; !reflect.DeepEqual(got[5], want) {
		t.Fatalf("unreachable member: outcomes %v, want %v (a lone discovery's)", got[5], want)
	}
	if r.Discoveries != loneRings {
		t.Fatalf("the wave took %d rings, a lone discovery of the unreachable member %d", r.Discoveries, loneRings)
	}
}

// TestResetNodeMidWave: resetting the origin while a wave is pending fails
// every buffered packet exactly once, in ascending destination order, and
// the wave's timer never fires again.
func TestResetNodeMidWave(t *testing.T) {
	e := sim.NewEngine(3)
	net, r, _ := lineWorld(e, 10, 150)
	for _, id := range []int{6, 7, 8, 9} {
		net.Fail(id)
	}
	var failed []int
	e.Schedule(0, func() {
		r.PrefetchRoutes(0, []int{9, 2, 7, 6})
		for _, dst := range []int{9, 2, 7, 6, 7} {
			r.Send(0, dst, innerPkt(0, dst), func(ok bool) {
				if ok {
					t.Errorf("send to %d reported success after the reset", dst)
				}
				failed = append(failed, dst)
			})
		}
	})
	e.Schedule(0.05, func() { r.ResetNode(0) })
	e.Run(0.06)
	rings := r.Discoveries
	e.Run(60)
	if want := []int{2, 6, 7, 7, 9}; !reflect.DeepEqual(failed, want) {
		t.Fatalf("packets failed %v, want %v", failed, want)
	}
	if rings != 1 || r.Discoveries != rings {
		t.Fatalf("%d rings before the reset, %d after it; want one, and no more", rings, r.Discoveries-rings)
	}
	if len(r.nodes[0].disc) != 0 {
		t.Fatalf("%d targets still registered after the reset", len(r.nodes[0].disc))
	}
}
