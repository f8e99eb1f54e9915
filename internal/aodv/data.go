package aodv

import "probquorum/internal/netstack"

// upcallView is the packet a router hands the application at a routed-data
// arrival: the inner packet with Hops filled in, owned by the router and
// valid for the upcall only, as a one-hop delivery is (netstack.Packet). It
// is cleared when the upcall returns. An upcall that re-enters the router
// and reaches another arrival while the view is in use gets a heap copy.
type upcallView struct {
	pkt  netstack.Packet
	busy bool
}

// open returns inner as the node receiving envelope pkt sees it: the view,
// or a copy when the view is already handed out. Pass the result to close
// once the upcall has returned.
func (v *upcallView) open(inner, pkt *netstack.Packet) *netstack.Packet {
	if v.busy {
		cp := inner.Clone() //pqlint:allow noalloc(re-entrant upcall only: the outer upcall still holds the view)
		cp.Hops = pkt.Hops + 1
		return cp
	}
	v.busy = true
	v.pkt = *inner
	v.pkt.Hops = pkt.Hops + 1
	return &v.pkt
}

// close ends the upcall that open's p was handed to.
func (v *upcallView) close(p *netstack.Packet) {
	if p == &v.pkt {
		v.pkt = netstack.Packet{}
		v.busy = false
	}
}

// arrive is what both routers do with a routed-data envelope — a ProtoRouted
// packet whose Payload is the inner *netstack.Packet, shared by every hop's
// copy — arriving at n, before either looks for a next hop: the destination
// hands the inner packet up, a transit node offers it to each tap, and an
// envelope out of TTL is counted in *drops. What is handed out is the
// router's view (upcallView): valid for the upcall only, so a receiver that
// keeps the packet keeps a Clone. arrive reports whether the envelope is
// still to be forwarded.
//
//pqlint:noalloc
func arrive(n *netstack.Node, pkt *netstack.Packet, from int, taps []TransitTap, view *upcallView, drops *uint64) bool {
	inner, ok := pkt.Payload.(*netstack.Packet)
	if !ok {
		return false
	}
	if pkt.Dst == n.ID() {
		p := view.open(inner, pkt)
		n.DeliverLocal(p, from) //pqlint:allow noalloc(end of the forwarding path: the application's handler takes over)
		view.close(p)
		return false
	}
	for _, tap := range taps {
		p := view.open(inner, pkt)
		consumed := tap(n, p) //pqlint:allow noalloc(a tap is application code, installed by RANDOM-OPT and caching only)
		view.close(p)
		if consumed {
			return false
		}
	}
	if pkt.TTL <= 1 {
		*drops++
		return false
	}
	return true
}

// transmitData sends op's packet toward its destination via route rt from
// the origin node st.
func (r *Routing) transmitData(st *nodeState, op *outPacket, rt *route) {
	r.touchRoute(st, op.dst)
	node := r.net.Node(st.id)
	pkt := netstack.Packet{
		Proto: netstack.ProtoRouted, Src: st.id, Dst: op.dst,
		TTL:   netDiameter,
		Bytes: op.inner.Bytes + dataEnvelopeBytes,
		Hops:  op.inner.Hops, Payload: op.inner,
	}
	next := int(rt.nextHop)
	node.SendOneHop(next, &pkt, func(ok bool) {
		if ok {
			if op.done != nil {
				op.done(true)
			}
			return
		}
		r.linkBroken(st, next)
		// Origin-side salvage: one re-discovery attempt, then give up.
		if !op.retried && op.maxTTL == 0 {
			op.retried = true
			if rt2 := r.validRoute(st, op.dst); rt2 != nil && int(rt2.nextHop) != next {
				r.transmitData(st, op, rt2)
				return
			}
			r.enqueueDiscovery(st, op)
			return
		}
		if op.done != nil {
			op.done(false)
		}
	})
}

// handleData processes a routed envelope arriving at node n.
func (r *Routing) handleData(n *netstack.Node, pkt *netstack.Packet, from int) {
	st := r.nodes[n.ID()]
	// Keep the active paths fresh in both directions.
	r.updateRoute(st, from, from, 1, 0, false)
	r.touchRoute(st, pkt.Src)
	r.touchRoute(st, pkt.Dst)
	if !arrive(n, pkt, from, st.taps, &r.view, &r.DataDrops) {
		return
	}
	rt := r.validRoute(st, pkt.Dst)
	if rt == nil {
		r.DataDrops++
		r.linkLess(st, pkt.Dst)
		return
	}
	fwd := *pkt
	fwd.TTL--
	fwd.Hops++
	next := int(rt.nextHop)
	n.SendOneHop(next, &fwd, func(ok bool) {
		if !ok {
			r.linkBroken(st, next)
			r.DataDrops++
		}
	})
}

// linkLess reports a missing route at a forwarding node (route expired
// under the packet): advertise unreachability so upstream nodes repair. A
// destination the node never learned goes out with seq 0 and stays unknown.
func (r *Routing) linkLess(st *nodeState, dst int) {
	rt := st.entry(dst)
	seq := uint32(0)
	if rt != nil {
		rt.seq++
		seq = rt.seq
	}
	node := r.net.Node(st.id)
	pkt := &netstack.Packet{
		Proto: netstack.ProtoAODV, Src: st.id, Dst: netstack.Broadcast,
		TTL: 1, Bytes: rerrBytes, Payload: &rerrMsg{Unreachable: []unreachable{{dst: dst, seq: seq}}},
	}
	r.engine.Schedule(r.jitter(), func() { node.BroadcastOneHop(pkt) })
}
