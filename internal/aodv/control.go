package aodv

import (
	"slices"

	"probquorum/internal/netstack"
	"probquorum/internal/sim"
)

// rreqMsg is a route request, flooded with limited TTL. It names one or more
// destinations: a fan-out's discovery names every member it searches for.
type rreqMsg struct {
	ID       uint32
	Orig     int
	OrigSeq  uint32
	Targets  []rreqTarget
	HopCount int
}

// rreqTarget is one destination a request names, with the sequence number
// the originator last knew for it: RFC 3561's destination fields.
type rreqTarget struct {
	Dst     int
	DstSeq  uint32
	HasDSeq bool
}

// rreqSize is the size of a request naming targets destinations.
func rreqSize(targets int) int { return rreqBytes + rreqTargetBytes*(targets-1) }

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

var _ RoutePrefetcher = (*Routing)(nil)

// PrefetchRoutes implements RoutePrefetcher: origin is about to message
// every node of dsts, so one discovery searches for all the ones it has no
// valid route to and no discovery under way for, one RREQ per ring naming
// them all. The sends that follow join it. A dead origin starts nothing.
func (r *Routing) PrefetchRoutes(origin int, dsts []int) {
	if !r.net.Node(origin).Alive() {
		return
	}
	st := r.nodes[origin]
	var d *discovery
	for _, dst := range dsts {
		if dst == origin || st.disc[dst] != nil || r.validRoute(st, dst) != nil {
			continue
		}
		if d == nil {
			d = r.newDiscovery(st, ttlStart, false)
		}
		st.addTarget(d, dst)
	}
	if d != nil {
		r.broadcastRREQ(st, d)
	}
}

// newDiscovery returns an empty discovery at st whose first ring has the
// given TTL.
func (r *Routing) newDiscovery(st *nodeState, ttl int, scoped bool) *discovery {
	d := &discovery{ttl: ttl, scoped: scoped}
	d.timer = sim.NewTimer(r.engine, func() { r.discoveryTimeout(st, d) })
	return d
}

// addTarget makes dst a target of d and registers d under it.
func (st *nodeState) addTarget(d *discovery, dst int) *target {
	t := &target{dst: dst}
	d.targets = append(d.targets, t)
	st.disc[dst] = d
	return t
}

// enqueueDiscovery buffers op and starts (or joins) a route discovery for
// its destination.
func (r *Routing) enqueueDiscovery(st *nodeState, op *outPacket) {
	if d := st.disc[op.dst]; d != nil {
		t := d.targets[d.index(op.dst)]
		t.pending = append(t.pending, op)
		return
	}
	ttl := ttlStart
	if op.maxTTL > 0 {
		ttl = op.maxTTL
	}
	d := r.newDiscovery(st, ttl, op.maxTTL > 0)
	st.addTarget(d, op.dst).pending = []*outPacket{op}
	r.broadcastRREQ(st, d)
}

// broadcastRREQ sends one ring of the expanding search under a fresh
// request id, naming every target d still searches for.
func (r *Routing) broadcastRREQ(st *nodeState, d *discovery) {
	r.Discoveries++
	st.seq++
	st.rreqID++
	req := &rreqMsg{
		ID:      st.rreqID,
		Orig:    st.id,
		OrigSeq: st.seq,
		Targets: make([]rreqTarget, len(d.targets)),
	}
	for i, t := range d.targets {
		req.Targets[i].Dst = t.dst
		if rt := st.entry(t.dst); rt != nil && rt.validSeq {
			req.Targets[i].DstSeq = rt.seq
			req.Targets[i].HasDSeq = true
		}
	}
	// Suppress our own re-reception of this request.
	r.markSeen(st, rreqKey(st.id, req.ID))
	r.broadcastJittered(r.net.Node(st.id), netstack.Packet{
		Proto: netstack.ProtoAODV, Src: st.id, Dst: netstack.Broadcast,
		TTL: d.ttl, Bytes: rreqSize(len(req.Targets)), Payload: req,
	})
	// Ring traversal timeout: out and back at NodeTraversalTime per hop,
	// with RFC 3561's two-hop safety margin.
	d.timer.Reset(2 * r.cfg.NodeTraversalTime * float64(d.ttl+2))
}

// discoveryTimeout ends a ring of d. The targets that have gained a valid
// route resolve; when the ring was a scoped attempt, its scoped packets
// fail, and a target with an unscoped packet carries the search on as an
// unscoped ring. The targets left are searched for again under a fresh
// request, or fail in target order once the network-wide retries are spent.
// Every target leaves st.disc before any callback runs.
func (r *Routing) discoveryTimeout(st *nodeState, d *discovery) {
	var routed []*target
	var failed []*outPacket
	kept := d.targets[:0]
	for _, t := range d.targets {
		if r.validRoute(st, t.dst) != nil {
			routed = append(routed, t)
			delete(st.disc, t.dst)
			continue
		}
		if d.scoped {
			t.pending = slices.DeleteFunc(t.pending, func(op *outPacket) bool {
				if op.maxTTL > 0 {
					failed = append(failed, op)
				}
				return op.maxTTL > 0
			})
			if len(t.pending) == 0 {
				delete(st.disc, t.dst)
				continue
			}
		}
		kept = append(kept, t)
	}
	d.targets, d.scoped = kept, false
	for _, t := range routed {
		r.settle(st, t, true)
	}
	for _, op := range failed {
		if op.done != nil {
			op.done(false)
		}
	}
	if len(d.targets) == 0 {
		return
	}
	switch {
	case d.ttl < ttlThreshold:
		d.ttl += ttlIncrement
		if d.ttl > ttlThreshold {
			d.ttl = ttlThreshold
		}
	case d.ttl < netDiameter:
		d.ttl = netDiameter
	default:
		d.fullRetries++
		if d.fullRetries > rreqRetries {
			left := d.targets
			d.targets = nil
			for _, t := range left {
				delete(st.disc, t.dst)
			}
			for _, t := range left {
				r.settle(st, t, false)
			}
			return
		}
	}
	r.broadcastRREQ(st, d)
}

// resolveTarget unhooks dst from its discovery, stopping the discovery's
// timer when dst was its last target, and resolves the packets waiting for
// dst.
func (r *Routing) resolveTarget(st *nodeState, dst int, ok bool) {
	d := st.disc[dst]
	if d == nil {
		return
	}
	delete(st.disc, dst)
	i := d.index(dst)
	t := d.targets[i]
	d.targets = slices.Delete(d.targets, i, i+1)
	if len(d.targets) == 0 {
		d.timer.Cancel()
	}
	r.settle(st, t, ok)
}

// settle resolves the packets waiting for t, which is no longer registered
// in st.disc, so a done callback may immediately start a fresh discovery
// for the same destination without touching this one. Packets resolve in
// t.pending's insertion order — a slice, never a map — so the per-op
// callback sequence is identical across replays.
func (r *Routing) settle(st *nodeState, t *target, ok bool) {
	pending := t.pending
	t.pending = nil
	for _, op := range pending {
		var rt *route
		if ok {
			rt = r.validRoute(st, t.dst)
		}
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
	key := rreqKey(req.Orig, req.ID)
	if st.seen(key) {
		return
	}
	r.markSeen(st, key)
	// Reverse route to the previous hop and to the originator.
	r.updateRoute(st, from, from, 1, 0, false)
	r.updateRoute(st, req.Orig, from, req.HopCount+1, req.OrigSeq, true)

	// Each target is answered on its own; the forwarded copy names only the
	// ones no reply went out for here. rest stays nil until one does.
	var rest []rreqTarget
	for i, t := range req.Targets {
		switch {
		case r.answerRREQ(st, req.Orig, t):
			if rest == nil {
				rest = make([]rreqTarget, i, len(req.Targets))
				copy(rest, req.Targets[:i])
			}
		case rest != nil:
			rest = append(rest, t)
		}
	}
	if rest == nil {
		rest = req.Targets
	}
	if len(rest) == 0 || pkt.TTL <= 1 {
		return
	}
	fwd := &rreqMsg{
		ID: req.ID, Orig: req.Orig, OrigSeq: req.OrigSeq,
		Targets: rest, HopCount: req.HopCount + 1,
	}
	r.broadcastJittered(n, netstack.Packet{
		Proto: netstack.ProtoAODV, Src: st.id, Dst: netstack.Broadcast,
		TTL: pkt.TTL - 1, Bytes: rreqSize(len(rest)), Payload: fwd, Hops: pkt.Hops + 1,
	})
}

// answerRREQ replies to orig's request for target t if st may, and reports
// whether it did: as the destination itself, or as a node holding a route
// to it at least as fresh as the one the request asks for.
func (r *Routing) answerRREQ(st *nodeState, orig int, t rreqTarget) bool {
	if st.id == t.Dst {
		// RFC 3561 §6.6.1: the destination bumps its sequence number to
		// at least the requested one.
		if t.HasDSeq && int32(t.DstSeq-st.seq) > 0 {
			st.seq = t.DstSeq
		}
		st.seq++
		r.sendRREP(st, &rrepMsg{Orig: orig, Dst: st.id, DstSeq: st.seq, HopCount: 0})
		return true
	}
	// §6.6.2: an intermediate node with a fresh-enough route answers on the
	// destination's behalf.
	if rt := r.validRoute(st, t.Dst); rt != nil && rt.validSeq &&
		(!t.HasDSeq || int32(rt.seq-t.DstSeq) >= 0) {
		r.sendRREP(st, &rrepMsg{Orig: orig, Dst: t.Dst, DstSeq: rt.seq, HopCount: int(rt.hops)})
		return true
	}
	return false
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
	next := int(rt.nextHop)
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
		r.resolveTarget(st, rep.Dst, true)
		return
	}
	fwd := &rrepMsg{Orig: rep.Orig, Dst: rep.Dst, DstSeq: rep.DstSeq, HopCount: rep.HopCount + 1}
	r.sendRREP(st, fwd)
}

// linkBroken reacts to a MAC-level delivery failure to neighbor next:
// invalidate all routes through it and advertise the loss, in ascending
// destination order.
func (r *Routing) linkBroken(st *nodeState, next int) {
	var lost []unreachable
	for dst := range st.routes {
		rt := &st.routes[dst]
		if rt.valid && int(rt.nextHop) == next {
			rt.valid = false
			rt.seq++ // RFC 3561 §6.11: increment seq of lost routes
			lost = append(lost, unreachable{dst: dst, seq: rt.seq})
		}
	}
	if len(lost) == 0 {
		return
	}
	r.broadcastJittered(r.net.Node(st.id), netstack.Packet{
		Proto: netstack.ProtoAODV, Src: st.id, Dst: netstack.Broadcast,
		TTL: 1, Bytes: rerrBytes, Payload: &rerrMsg{Unreachable: lost},
	})
}

func (r *Routing) handleRERR(n *netstack.Node, st *nodeState, msg *rerrMsg, from int) {
	var propagate []unreachable
	for _, u := range msg.Unreachable {
		rt := st.entry(u.dst)
		if rt != nil && rt.valid && int(rt.nextHop) == from {
			rt.valid = false
			rt.seq = u.seq
			propagate = append(propagate, u)
		}
	}
	if len(propagate) == 0 {
		return
	}
	r.broadcastJittered(n, netstack.Packet{
		Proto: netstack.ProtoAODV, Src: st.id, Dst: netstack.Broadcast,
		TTL: 1, Bytes: rerrBytes, Payload: &rerrMsg{Unreachable: propagate},
	})
}
