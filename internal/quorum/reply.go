package quorum

import "probquorum/internal/netstack"

// replyMsg carries a lookup hit back to the originator. Walk and flooding
// replies travel the recorded reverse path (Path / per-node previous hops);
// routed replies (Random, RandomOpt) arrive directly via AODV. A walk
// reply's hop carries the msg of a pooled replyHop, which a receiver may read
// during its upcall only.
type replyMsg struct {
	Op         opID
	Key, Value string
	// Path is the walk's visited list, origin first (it may alias the
	// walk's own list, which is only ever appended to); Idx is the
	// position in it of the node the reply was last addressed to. Nil for
	// routed and flooding replies.
	Path []int
	Idx  int
	// Flood marks a reply travelling a flood's per-node previous-hop
	// chain instead of an explicit path; Round is the flood round of the
	// op it answers.
	Flood bool
	Round int

	// pkt is the inner packet a routed reply travels in (routedReply); a
	// reply sent one hop at a time leaves it empty.
	pkt netstack.Packet
}

// routedReply fills in r's inner packet for a routed send from src to dst.
func (s *System) routedReply(r *replyMsg, src, dst int) *netstack.Packet {
	r.pkt = s.packet(src, dst, r)
	return &r.pkt
}

// handleReply processes a reply arriving at node n (off the air or via
// routed delivery during local repair).
func (s *System) handleReply(n *netstack.Node, r *replyMsg) {
	if s.cfg.Caching {
		// Relay nodes cache the mapping as bystanders (Section 7.1).
		if n.ID() != r.Op.Origin {
			s.cacheAt(n.ID(), r.Key, r.Value)
		}
	}
	if n.ID() == r.Op.Origin {
		s.completeLookup(r.Op, r.Value)
		return
	}
	switch {
	case r.Flood:
		s.forwardFloodReply(n, r)
	case r.Path != nil:
		// Re-anchor to this node's position in the path: after a
		// repaired (routed) hop the holder may differ from Path[Idx].
		idx := r.Idx
		for i, v := range r.Path {
			if v == n.ID() {
				idx = i
				break
			}
		}
		s.forwardReply(n, r, idx)
	default:
		// Routed reply not yet at the origin: nothing to forward; the
		// routing layer delivers only at the destination.
	}
}

// replyHop is one pooled hop of a walk reply: the message the receiver reads
// and the sender's state for the completion, which is bound once per object
// (newReplyHop). Routed and flooding replies are plain replyMsgs and carry
// none of it. Like a walkMsg, a hop belongs to its send: it goes back to the
// free list when the send settles ok (DESIGN.md §9).
type replyHop struct {
	msg  replyMsg
	from *netstack.Node
	done func(ok bool)
}

// forwardReply moves a walk reply one step toward the origin along the
// recorded path, applying reply-path reduction and, on failure, local
// repair. idx is the holder n's position in r.Path. r is read, not kept: it
// may be the arriving hop's message or a template on the caller's stack.
//
//pqlint:noalloc
func (s *System) forwardReply(n *netstack.Node, r *replyMsg, idx int) {
	if idx <= 0 || n.ID() == r.Path[0] {
		s.completeLookup(r.Op, r.Value) //pqlint:allow noalloc(the reply has arrived: the lookup settles once per op and runs the caller's completion)
		return
	}
	j := idx - 1
	if s.cfg.ReplyPathReduction {
		// Skip to the earliest path node that is currently a direct
		// neighbor (Section 7.2).
		neighbor := s.mark(s.net.Neighbors(n.ID()))
		for i := 0; i < j; i++ {
			if s.stamp[r.Path[i]] == neighbor {
				s.counters.PathReductions += j - i
				j = i
				break
			}
		}
	}
	h := s.newReplyHop()
	h.msg = replyMsg{Op: r.Op, Key: r.Key, Value: r.Value, Path: r.Path, Idx: j}
	h.from = n
	pkt := s.packet(n.ID(), r.Path[j], &h.msg)
	n.SendOneHop(r.Path[j], &pkt, h.done)
}

// replySent is a reply hop's completion (h.done). A delivered hop goes back
// to the free list; a failed one hands its message to repair, whose routed
// retries keep it, so it is never reused.
func (s *System) replySent(h *replyHop, ok bool) {
	if !ok {
		s.replyHopBroken(h.from, &h.msg, h.msg.Idx)
		return
	}
	s.freeReplyHop(h)
}

// newReplyHop takes a reply hop from the free list, or makes one with its
// completion bound when the list is dry.
//
//pqlint:noalloc
func (s *System) newReplyHop() *replyHop {
	if n := len(s.replyFree); n > 0 {
		h := s.replyFree[n-1]
		s.replyFree[n-1] = nil
		s.replyFree = s.replyFree[:n-1]
		return h
	}
	//pqlint:allow noalloc(pool-dry cold path: one hop per increase of the in-flight reply high-water mark)
	h := &replyHop{}
	//pqlint:allow noalloc(bound once per pooled hop and kept across its reuses)
	h.done = func(ok bool) { s.replySent(h, ok) }
	return h
}

// freeReplyHop hands a settled hop back to the free list, unless a
// fault-delayed copy of it may still be in flight (see freeWalkMsg).
//
//pqlint:noalloc
func (s *System) freeReplyHop(h *replyHop) {
	if s.net.PendingFaultDeliveries() > 0 {
		return
	}
	*h = replyHop{done: h.done}
	s.replyFree = append(s.replyFree, h) //pqlint:allow noalloc(free-list growth is amortized to the pool high-water mark)
}

// replyHopBroken reacts to a MAC failure delivering a reply to Path[j]:
// without repair the reply is dropped (Fig. 13); with repair, TTL-scoped
// routing tries successive earlier path nodes, ending with unscoped routing
// to the origin as a last resort (Section 6.2).
func (s *System) replyHopBroken(n *netstack.Node, r *replyMsg, j int) {
	if !s.cfg.ReplyLocalRepair {
		s.counters.ReplyDrops++
		return
	}
	if j == 0 {
		// The failed hop was the origin itself: full routing.
		s.fullRouteReply(n, r)
		return
	}
	s.tryScopedRepair(n, r, j-1)
}

// repairTTL is the scoped-routing TTL of local repair (paper: 3).
const repairTTL = 3

// tryScopedRepair attempts TTL-limited routed delivery to Path[c], falling
// back toward the origin on failure.
func (s *System) tryScopedRepair(n *netstack.Node, r *replyMsg, c int) {
	if c < 0 {
		s.fullRouteReply(n, r)
		return
	}
	next := &replyMsg{Op: r.Op, Key: r.Key, Value: r.Value, Path: r.Path, Idx: c}
	s.routing.SendScoped(n.ID(), r.Path[c], s.routedReply(next, n.ID(), r.Path[c]), repairTTL, func(ok bool) {
		if ok {
			s.counters.LocalRepairs++
			return
		}
		if c == 0 {
			s.fullRouteReply(n, r)
			return
		}
		s.tryScopedRepair(n, r, c-1)
	})
}

// fullRouteReply is the last-resort unscoped routed delivery to the origin.
func (s *System) fullRouteReply(n *netstack.Node, r *replyMsg) {
	origin := r.Op.Origin
	next := &replyMsg{Op: r.Op, Key: r.Key, Value: r.Value, Path: r.Path, Idx: 0}
	s.routing.Send(n.ID(), origin, s.routedReply(next, n.ID(), origin), func(ok bool) {
		if ok {
			s.counters.FullRouteRepairs++
		} else {
			s.counters.ReplyDrops++
		}
	})
}

// forwardFloodReply moves a flooding reply one hop along the per-node
// previous-hop chain recorded while the flood spread.
func (s *System) forwardFloodReply(n *netstack.Node, r *replyMsg) {
	prev, ok := s.roundOf(r.Op, r.Round)[n.ID()]
	if !ok || prev == n.ID() {
		s.counters.ReplyDrops++
		return
	}
	next := &replyMsg{Op: r.Op, Round: r.Round, Key: r.Key, Value: r.Value, Flood: true}
	pkt := s.packet(n.ID(), prev, next)
	n.SendOneHop(prev, &pkt, func(ok bool) {
		if ok {
			return
		}
		if s.cfg.ReplyLocalRepair && s.routing != nil {
			s.fullRouteReply(n, &replyMsg{Op: r.Op, Key: r.Key, Value: r.Value, Path: []int{r.Op.Origin}})
			return
		}
		s.counters.ReplyDrops++
	})
}
