package aodv

import "probquorum/internal/netstack"

// arrive is what both routers do with a routed-data envelope — a ProtoRouted
// packet whose Payload is the inner *netstack.Packet, shared by every hop's
// copy — arriving at n, before either looks for a next hop: the destination
// hands the inner packet up, a transit node offers it to each tap, and an
// envelope out of TTL is counted in *drops. What is handed out is a heap copy
// with Hops filled in, which the receiver may keep. arrive reports whether
// the envelope is still to be forwarded.
//
//pqlint:noalloc
func arrive(n *netstack.Node, pkt *netstack.Packet, from int, taps []TransitTap, drops *uint64) bool {
	inner, ok := pkt.Payload.(*netstack.Packet)
	if !ok {
		return false
	}
	if pkt.Dst == n.ID() {
		n.DeliverLocal(delivered(inner, pkt), from) //pqlint:allow noalloc(end of the forwarding path: the application's handler takes over)
		return false
	}
	for _, tap := range taps {
		if tap(n, delivered(inner, pkt)) { //pqlint:allow noalloc(a tap is application code, installed by RANDOM-OPT and caching only)
			return false
		}
	}
	if pkt.TTL <= 1 {
		*drops++
		return false
	}
	return true
}

// delivered returns inner as the node receiving envelope pkt sees it.
func delivered(inner, pkt *netstack.Packet) *netstack.Packet {
	cp := inner.Clone()
	cp.Hops = pkt.Hops + 1
	return cp
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
	if !arrive(n, pkt, from, st.taps, &r.DataDrops) {
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
