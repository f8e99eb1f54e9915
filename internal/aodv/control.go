package aodv

import (
	"sort"

	"probquorum/internal/netstack"
	"probquorum/internal/sim"
)

// rreqMsg is a route request, flooded with limited TTL.
type rreqMsg struct {
	ID       uint32
	Orig     int
	OrigSeq  uint32
	Dst      int
	DstSeq   uint32
	HasDSeq  bool
	HopCount int
}

// rrepMsg is a route reply, unicast hop-by-hop along the reverse path.
type rrepMsg struct {
	Orig     int
	Dst      int
	DstSeq   uint32
	HopCount int
}

// rerrMsg announces broken destinations, broadcast one hop at a time.
type rerrMsg struct {
	Unreachable []unreachable
}

type unreachable struct {
	dst int
	seq uint32
}

// enqueueDiscovery buffers op and starts (or joins) a route discovery for
// its destination.
func (r *Routing) enqueueDiscovery(st *nodeState, op *outPacket) {
	d := st.disc[op.dst]
	if d != nil {
		d.pending = append(d.pending, op)
		return
	}
	ttl := r.cfg.TTLStart
	if op.maxTTL > 0 {
		ttl = op.maxTTL
	}
	d = &discovery{ttl: ttl, pending: []*outPacket{op}, scoped: op.maxTTL > 0}
	dst := op.dst
	d.timer = sim.NewTimer(r.engine, func() { r.discoveryTimeout(st, dst) })
	st.disc[dst] = d
	r.broadcastRREQ(st, dst, d)
}

// broadcastRREQ sends one ring of the expanding search.
func (r *Routing) broadcastRREQ(st *nodeState, dst int, d *discovery) {
	r.Discoveries++
	st.seq++
	st.rreqID++
	req := &rreqMsg{
		ID:      st.rreqID,
		Orig:    st.id,
		OrigSeq: st.seq,
		Dst:     dst,
	}
	if rt := st.routes[dst]; rt != nil && rt.validSeq {
		req.DstSeq = rt.seq
		req.HasDSeq = true
	}
	// Suppress our own re-reception of this request.
	r.markSeen(st, rreqKey{st.id, req.ID})
	pkt := &netstack.Packet{
		Proto: netstack.ProtoAODV, Src: st.id, Dst: netstack.Broadcast,
		TTL: d.ttl, Bytes: rreqBytes, Payload: req,
	}
	node := r.net.Node(st.id)
	r.engine.Schedule(r.jitter(), func() { node.BroadcastOneHop(pkt) })
	// Ring traversal timeout: out and back at NodeTraversalTime per hop,
	// with RFC 3561's two-hop safety margin.
	d.timer.Reset(2 * r.cfg.NodeTraversalTime * float64(d.ttl+2))
}

// discoveryTimeout escalates the ring search or fails the pending packets.
func (r *Routing) discoveryTimeout(st *nodeState, dst int) {
	d := st.disc[dst]
	if d == nil {
		return
	}
	if rt := r.validRoute(st, dst); rt != nil {
		r.finishDiscovery(st, dst, true)
		return
	}
	if d.scoped {
		r.finishDiscovery(st, dst, false)
		return
	}
	switch {
	case d.ttl < r.cfg.TTLThreshold:
		d.ttl += r.cfg.TTLIncrement
		if d.ttl > r.cfg.TTLThreshold {
			d.ttl = r.cfg.TTLThreshold
		}
	case d.ttl < r.cfg.NetDiameter:
		d.ttl = r.cfg.NetDiameter
	default:
		d.fullRetries++
		if d.fullRetries > r.cfg.RreqRetries {
			r.finishDiscovery(st, dst, false)
			return
		}
	}
	r.broadcastRREQ(st, dst, d)
}

// finishDiscovery resolves all packets waiting on dst and tears the
// discovery down. Packets resolve in d.pending's insertion order — a
// slice, never a map — so the per-op callback sequence is identical
// across replays. The discovery is unhooked from st.disc before any
// callback runs, so a done callback may immediately start a fresh
// discovery for the same destination without touching this one's state.
func (r *Routing) finishDiscovery(st *nodeState, dst int, ok bool) {
	d := st.disc[dst]
	if d == nil {
		return
	}
	d.timer.Cancel()
	delete(st.disc, dst)
	pending := d.pending
	d.pending = nil
	for _, op := range pending {
		if !ok {
			if op.done != nil {
				op.done(false)
			}
			continue
		}
		rt := r.validRoute(st, dst)
		if rt == nil {
			if op.done != nil {
				op.done(false)
			}
			continue
		}
		r.transmitData(st, op, rt)
	}
}

// handleControl processes RREQ/RREP/RERR at node n.
func (r *Routing) handleControl(n *netstack.Node, pkt *netstack.Packet, from int) {
	st := r.nodes[n.ID()]
	switch msg := pkt.Payload.(type) {
	case *rreqMsg:
		r.handleRREQ(n, st, pkt, msg, from)
	case *rrepMsg:
		r.handleRREP(n, st, msg, from)
	case *rerrMsg:
		r.handleRERR(n, st, msg, from)
	}
}

func (r *Routing) handleRREQ(n *netstack.Node, st *nodeState, pkt *netstack.Packet, req *rreqMsg, from int) {
	key := rreqKey{req.Orig, req.ID}
	if _, dup := st.seen[key]; dup {
		return
	}
	r.markSeen(st, key)
	// Reverse route to the previous hop and to the originator.
	r.updateRoute(st, from, from, 1, 0, false)
	r.updateRoute(st, req.Orig, from, req.HopCount+1, req.OrigSeq, true)

	if st.id == req.Dst {
		// RFC 3561 §6.6.1: the destination bumps its sequence number to
		// at least the requested one.
		if req.HasDSeq && int32(req.DstSeq-st.seq) > 0 {
			st.seq = req.DstSeq
		}
		st.seq++
		r.sendRREP(st, &rrepMsg{Orig: req.Orig, Dst: st.id, DstSeq: st.seq, HopCount: 0})
		return
	}
	// Intermediate node with a fresh-enough route may answer on the
	// destination's behalf.
	if rt := r.validRoute(st, req.Dst); rt != nil && rt.validSeq &&
		(!req.HasDSeq || int32(rt.seq-req.DstSeq) >= 0) {
		r.sendRREP(st, &rrepMsg{Orig: req.Orig, Dst: req.Dst, DstSeq: rt.seq, HopCount: rt.hops})
		return
	}
	if pkt.TTL <= 1 {
		return
	}
	fwd := &rreqMsg{
		ID: req.ID, Orig: req.Orig, OrigSeq: req.OrigSeq,
		Dst: req.Dst, DstSeq: req.DstSeq, HasDSeq: req.HasDSeq,
		HopCount: req.HopCount + 1,
	}
	out := &netstack.Packet{
		Proto: netstack.ProtoAODV, Src: st.id, Dst: netstack.Broadcast,
		TTL: pkt.TTL - 1, Bytes: rreqBytes, Payload: fwd, Hops: pkt.Hops + 1,
	}
	r.engine.Schedule(r.jitter(), func() { n.BroadcastOneHop(out) })
}

// sendRREP unicasts a reply from st toward the request originator along the
// reverse route.
func (r *Routing) sendRREP(st *nodeState, rep *rrepMsg) {
	if st.id == rep.Orig {
		return // we are the originator; route is already installed
	}
	rt := r.validRoute(st, rep.Orig)
	if rt == nil {
		return // reverse route evaporated; the ring search will retry
	}
	node := r.net.Node(st.id)
	pkt := &netstack.Packet{
		Proto: netstack.ProtoAODV, Src: st.id, Dst: rep.Orig,
		Bytes: rrepBytes, Payload: rep,
	}
	next := rt.nextHop
	node.SendOneHop(next, pkt, func(ok bool) {
		if !ok {
			r.linkBroken(st, next)
		}
	})
}

func (r *Routing) handleRREP(n *netstack.Node, st *nodeState, rep *rrepMsg, from int) {
	// Forward route to the replying destination.
	r.updateRoute(st, from, from, 1, 0, false)
	r.updateRoute(st, rep.Dst, from, rep.HopCount+1, rep.DstSeq, true)
	if st.id == rep.Orig {
		if d := st.disc[rep.Dst]; d != nil {
			r.finishDiscovery(st, rep.Dst, true)
		}
		return
	}
	fwd := &rrepMsg{Orig: rep.Orig, Dst: rep.Dst, DstSeq: rep.DstSeq, HopCount: rep.HopCount + 1}
	r.sendRREP(st, fwd)
}

// linkBroken reacts to a MAC-level delivery failure to neighbor next:
// invalidate all routes through it and advertise the loss.
func (r *Routing) linkBroken(st *nodeState, next int) {
	var lost []unreachable
	for dst, rt := range st.routes {
		if rt.valid && rt.nextHop == next {
			rt.valid = false
			rt.seq++ // RFC 3561 §6.11: increment seq of lost routes
			lost = append(lost, unreachable{dst: dst, seq: rt.seq})
		}
	}
	if len(lost) == 0 {
		return
	}
	// The routing-table map yields lost destinations in randomized order;
	// sort so the RERR payload is identical across replays.
	sort.Slice(lost, func(i, j int) bool { return lost[i].dst < lost[j].dst })
	node := r.net.Node(st.id)
	pkt := &netstack.Packet{
		Proto: netstack.ProtoAODV, Src: st.id, Dst: netstack.Broadcast,
		TTL: 1, Bytes: rerrBytes, Payload: &rerrMsg{Unreachable: lost},
	}
	r.engine.Schedule(r.jitter(), func() { node.BroadcastOneHop(pkt) })
}

func (r *Routing) handleRERR(n *netstack.Node, st *nodeState, msg *rerrMsg, from int) {
	var propagate []unreachable
	for _, u := range msg.Unreachable {
		rt := st.routes[u.dst]
		if rt != nil && rt.valid && rt.nextHop == from {
			rt.valid = false
			rt.seq = u.seq
			propagate = append(propagate, u)
		}
	}
	if len(propagate) == 0 {
		return
	}
	pkt := &netstack.Packet{
		Proto: netstack.ProtoAODV, Src: st.id, Dst: netstack.Broadcast,
		TTL: 1, Bytes: rerrBytes, Payload: &rerrMsg{Unreachable: propagate},
	}
	r.engine.Schedule(r.jitter(), func() { n.BroadcastOneHop(pkt) })
}
