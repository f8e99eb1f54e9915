package aodv

import (
	"slices"

	"probquorum/internal/netstack"
	"probquorum/internal/sim"
)

// rreqMsg is a route request, flooded with limited TTL. It names one or more
// destinations: a fan-out's discovery names every member it searches for.
// Its hop count is the packet's Hops: the originator sends 0 and each relay
// one more than it heard.
type rreqMsg struct {
	ID      uint32
	Orig    int
	OrigSeq uint32
	Targets []rreqTarget
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
	Orig   int
	Dst    int
	DstSeq uint32
	// HopCount is the replying node's distance to Dst: 0 from Dst itself.
	// It does not change along the path; a receiver's distance to Dst is
	// HopCount plus the packet's Hops plus one.
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
		r.handleRREP(st, pkt, msg, from)
	case *rerrMsg:
		r.handleRERR(n, st, msg, from)
	}
}

// handleRREQ processes request req at n. A relay that answers none of its
// targets re-broadcasts req itself (payloads are immutable once sent,
// netstack.Packet); only a trimmed forward is a new message.
//
//pqlint:noalloc
func (r *Routing) handleRREQ(n *netstack.Node, st *nodeState, pkt *netstack.Packet, req *rreqMsg, from int) {
	key := rreqKey(req.Orig, req.ID)
	if st.seen(key) {
		return
	}
	r.markSeen(st, key)
	// Reverse route to the previous hop and to the originator.
	r.updateRoute(st, from, from, 1, 0, false)
	r.updateRoute(st, req.Orig, from, pkt.Hops+1, req.OrigSeq, true)

	// Each target is answered on its own; a forward names only the ones no
	// reply went out for here, collected in r.rreqRest. A reply goes out
	// through the MAC, which never delivers inside a send, so no other
	// handleRREQ runs while rest is in use.
	rest := r.rreqRest[:0]
	for _, t := range req.Targets {
		if !r.answerRREQ(st, req.Orig, t) {
			rest = append(rest, t)
		}
	}
	r.rreqRest = rest
	if len(rest) == 0 || pkt.TTL <= 1 {
		return
	}
	fwd := req
	if len(rest) < len(req.Targets) {
		fwd = &rreqMsg{ID: req.ID, Orig: req.Orig, OrigSeq: req.OrigSeq, Targets: slices.Clone(rest)} //pqlint:allow noalloc(trimmed forward: the request minus the targets answered here)
	}
	r.broadcastJittered(n, netstack.Packet{
		Proto: netstack.ProtoAODV, Src: st.id, Dst: netstack.Broadcast,
		TTL: pkt.TTL - 1, Bytes: rreqSize(len(fwd.Targets)), Payload: fwd, Hops: pkt.Hops + 1,
	})
}

// answerRREQ replies to orig's request for target t if st may, and reports
// whether it did: as the destination itself, or as a node holding a route
// to it at least as fresh as the one the request asks for.
func (r *Routing) answerRREQ(st *nodeState, orig int, t rreqTarget) bool {
	var seq uint32
	var hops int
	if st.id == t.Dst {
		// RFC 3561 §6.6.1: the destination bumps its sequence number to
		// at least the requested one.
		if t.HasDSeq && int32(t.DstSeq-st.seq) > 0 {
			st.seq = t.DstSeq
		}
		st.seq++
		seq = st.seq
	} else if rt := r.validRoute(st, t.Dst); rt != nil && rt.validSeq &&
		(!t.HasDSeq || int32(rt.seq-t.DstSeq) >= 0) {
		// §6.6.2: an intermediate node with a fresh-enough route answers
		// on the destination's behalf.
		seq, hops = rt.seq, int(rt.hops)
	} else {
		return false
	}
	r.sendRREP(st, &rrepMsg{Orig: orig, Dst: t.Dst, DstSeq: seq, HopCount: hops}, 0) //pqlint:allow noalloc(the answering node's reply, read by every hop until the originator)
	return true
}

// sendRREP unicasts reply rep, which has travelled hops hops so far, from st
// toward the request originator along the reverse route.
//
//pqlint:noalloc
func (r *Routing) sendRREP(st *nodeState, rep *rrepMsg, hops int) {
	if st.id == rep.Orig {
		return // we are the originator; route is already installed
	}
	rt := r.validRoute(st, rep.Orig)
	if rt == nil {
		return // reverse route evaporated; the ring search will retry
	}
	pkt := netstack.Packet{
		Proto: netstack.ProtoAODV, Src: st.id, Dst: rep.Orig,
		Bytes: rrepBytes, Payload: rep, Hops: hops,
	}
	next := int(rt.nextHop)
	r.net.Node(st.id).SendOneHop(next, &pkt, r.watchLink(st, next, false))
}

// handleRREP processes reply rep at st: a relay passes rep itself on.
//
//pqlint:noalloc
func (r *Routing) handleRREP(st *nodeState, pkt *netstack.Packet, rep *rrepMsg, from int) {
	// Forward route to the replying destination.
	r.updateRoute(st, from, from, 1, 0, false)
	r.updateRoute(st, rep.Dst, from, rep.HopCount+pkt.Hops+1, rep.DstSeq, true)
	if st.id == rep.Orig {
		r.resolveTarget(st, rep.Dst, true) //pqlint:allow noalloc(end of a discovery at its originator: the packets waiting for the route are sent)
		return
	}
	r.sendRREP(st, rep, pkt.Hops+1)
}

// linkWatch is the completion of a hop AODV sends without a caller's done —
// a RREP, or a routed envelope a node forwards: a failed hop breaks the link
// from st to next, and a data hop counts a drop. It is pooled, with fn bound
// once per object. The MAC calls a hop's completion at most once, and
// linkDone puts the record back before it reacts, so a hop sent from within
// that reaction can reuse it.
type linkWatch struct {
	st   *nodeState
	next int
	data bool
	fn   func(ok bool)
}

// watchLink returns the completion of a hop from st to next.
//
//pqlint:noalloc
func (r *Routing) watchLink(st *nodeState, next int, data bool) func(ok bool) {
	w := r.linkWatches.Get()
	w.st, w.next, w.data = st, next, data
	return w.fn
}

// newLinkWatch is the link-watch pool's New: a record with fn bound.
func (r *Routing) newLinkWatch() *linkWatch {
	w := &linkWatch{}
	w.fn = func(ok bool) { r.linkDone(w, ok) }
	return w
}

// linkDone is w's completion.
//
//pqlint:noalloc
func (r *Routing) linkDone(w *linkWatch, ok bool) {
	st, next, data := w.st, w.next, w.data
	*w = linkWatch{fn: w.fn}
	r.linkWatches.Put(w)
	if ok {
		return
	}
	r.linkBroken(st, next) //pqlint:allow noalloc(cold path: a failed hop invalidates routes and sends a new RERR)
	if data {
		r.DataDrops++
	}
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

// handleRERR processes msg at n: the routes through from to the
// destinations it names are lost, and those n held are announced in turn.
// The kept entries are collected in r.rerrKept; when they are all of msg's,
// n re-broadcasts msg itself, and only a partial forward is a new message.
//
//pqlint:noalloc
func (r *Routing) handleRERR(n *netstack.Node, st *nodeState, msg *rerrMsg, from int) {
	kept := r.rerrKept[:0]
	for _, u := range msg.Unreachable {
		rt := st.entry(u.dst)
		if rt != nil && rt.valid && int(rt.nextHop) == from {
			rt.valid = false
			rt.seq = u.seq
			kept = append(kept, u)
		}
	}
	r.rerrKept = kept
	fwd := msg
	switch len(kept) {
	case 0:
		return
	case len(msg.Unreachable): // every entry goes on: msg itself does
	default:
		fwd = &rerrMsg{Unreachable: slices.Clone(kept)} //pqlint:allow noalloc(partial forward: the entries this node held a route for)
	}
	r.broadcastJittered(n, netstack.Packet{
		Proto: netstack.ProtoAODV, Src: st.id, Dst: netstack.Broadcast,
		TTL: 1, Bytes: rerrBytes, Payload: fwd,
	})
}
