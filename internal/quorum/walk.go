package quorum

import "probquorum/internal/netstack"

// walkHeader is the part of a PATH / UNIQUE-PATH quorum access that stays
// the same from hop to hop; one is shared, read-only, by all of a walk's
// messages.
type walkHeader struct {
	Op           opID
	Advertise    bool
	Key, Value   string
	Target       int
	SelfAvoiding bool
	// NoHalt overrides early halting for this walk (collect-mode
	// lookups must cover the full quorum).
	NoHalt bool
}

// walkMsg carries a walk over one hop. The visited-node list both counts
// distinct coverage and records the reverse path for replies, as the paper
// describes (Section 4.2).
//
// The part the receiver reads and the sender's forwarding state are a single
// object, drawn from the System's pool (newWalkMsg) with its completion
// func bound once; the packet it travels in is built on the sender's stack. A
// walkMsg belongs to its send: a receiver may read it during its upcall only,
// and it goes back to the pool once the send has settled ok or the walk
// has ended (DESIGN.md §9).
type walkMsg struct {
	*walkHeader
	// Visited is the path so far, origin first. Its backing array is
	// shared along the walk: each receiver appends itself in place, and
	// no element is ever rewritten, so every earlier holder's (shorter)
	// slice — and a reply's Path aliasing one — stays valid.
	Visited []int
	Unique  int // distinct nodes among Visited

	// extended records that a delivery of this message has already
	// appended to Visited in place. A second delivery of the same message
	// (a duplicated frame; a salvation resend after a hop the MAC gave up
	// on although the frame had arrived) must fork a private copy, or two
	// continuations would write the same slot.
	extended bool

	// Forwarding state of the node that sends this message, src; receivers
	// never read it. pool holds the salvation candidates — the sender's
	// neighbors at the first attempt, minus those already tried — and done
	// is the completion callback, bound when the message is first made and
	// kept across reuses.
	src  int
	pool []int
	done func(ok bool)
}

// walkPathCap is the initial capacity of a walk's visited list: most early-
// halting lookups end within it, longer walks grow it geometrically. A count
// of the list's length at walk end puts 85 % of the walks of the paper's
// setting (bench's paper-sinr-aodv) within 8 entries and 44 % of
// ideal-walk-read's; 16 would save ideal-walk-read 0.56 objects a walk but
// cost the paper's setting 45 bytes a walk, so 8 stays.
const walkPathCap = 8

// walkStart is what launching a walk allocates: the header all of its
// messages share and the first walkPathCap slots of its visited list.
type walkStart struct {
	walkHeader
	visited [walkPathCap]int
}

// startWalk launches a random-walk quorum access at origin. The origin
// itself is the first covered node.
func (s *System) startWalk(origin int, h walkHeader) {
	w := &walkStart{walkHeader: h}
	m := s.walkMsgs.Get()
	m.walkHeader, m.Visited, m.Unique = &w.walkHeader, append(w.visited[:0], origin), 1
	if h.Advertise {
		s.storeAt(origin, h.Key, h.Value, true, h.Op)
	}
	if m.Unique >= m.Target {
		s.walkEnded(m)
		return
	}
	s.forwardWalk(s.net.Node(origin), m)
}

// extendVisited returns m.Visited with u appended: in place for the first
// delivery of m, into a private copy (the full slice expression forces
// append to reallocate) for any later one.
func extendVisited(m *walkMsg, u int) []int {
	if m.extended {
		return append(m.Visited[:len(m.Visited):len(m.Visited)], u)
	}
	m.extended = true
	return append(m.Visited, u)
}

// handleWalk processes a walk message arriving at node n.
func (s *System) handleWalk(n *netstack.Node, m *walkMsg) {
	u := n.ID()
	unique := m.Unique + 1
	for _, v := range m.Visited {
		if v == u {
			unique-- // revisit
			break
		}
	}
	visited := extendVisited(m, u)

	if m.Advertise {
		s.storeAt(u, m.Key, m.Value, true, m.Op)
	} else if value, ok := s.stores[u].Get(m.Key); ok {
		// Lookup hit at this node.
		s.markIntersected(m.Op)
		s.recordServe(u, m.Key)
		if s.lookups[m.Op] != nil {
			s.sendWalkReply(n, m.walkHeader, visited, value)
		}
		if s.cfg.EarlyHalt && !m.NoHalt {
			return // stop the walk at the first hit (Section 7.1)
		}
	}

	next := s.walkMsgs.Get()
	next.walkHeader, next.Visited, next.Unique = m.walkHeader, visited, unique
	if next.Unique >= next.Target {
		s.walkEnded(next)
		return
	}
	s.forwardWalk(n, next)
}

// walkTTLFactor bounds a walk's total steps to walkTTLFactor·target+20. A walk
// trapped in a network pocket smaller than its target could otherwise wander
// forever; real deployments bound the walk with a TTL for the same reason (the
// paper plots "RW TTL" in Fig. 12). The cap is generous relative to the
// measured partial cover times (≈1.3–2.5 steps per unique node, Fig. 4).
const walkTTLFactor = 8

// forwardWalk picks the next hop and sends, salvaging through alternative
// neighbors on MAC failure when configured (Section 6.2).
func (s *System) forwardWalk(n *netstack.Node, m *walkMsg) {
	if len(m.Visited) >= walkTTLFactor*m.Target+20 {
		s.counters.WalkExpirations++
		s.walkEnded(m)
		return
	}
	m.src = n.ID()
	m.pool = s.takePool(s.net.Neighbors(n.ID()))
	s.tryForwardWalk(m)
}

// tryForwardWalk attempts one forwarding step from m's candidate pool: the
// first attempt of a hop, or a salvation after the previous one failed.
//
//pqlint:noalloc
func (s *System) tryForwardWalk(m *walkMsg) {
	if len(m.pool) == 0 {
		s.counters.WalkDrops++
		s.walkEnded(m) //pqlint:allow noalloc(a dropped walk settles its advertise: once per walk, not per hop, and the settlement runs the caller's completion)
		return
	}
	idx := s.pickWalkNext(m, m.pool)
	next := m.pool[idx]
	m.pool[idx] = m.pool[len(m.pool)-1]
	m.pool = m.pool[:len(m.pool)-1]
	pkt := s.packet(m.src, next, m)
	s.net.Node(m.src).SendOneHop(next, &pkt, m.done)
}

// walkSent is a walk hop's completion (m.done): a delivered message goes back
// to the pool, a failed one is salvaged through another candidate or
// ends the walk.
func (s *System) walkSent(m *walkMsg, ok bool) {
	switch {
	case ok:
		s.freeWalkMsg(m)
	case !s.cfg.Salvation:
		s.counters.WalkDrops++
		s.walkEnded(m)
	default:
		s.counters.Salvations++
		s.tryForwardWalk(m)
	}
}

// newWalkMsg is the walk-message pool's New: a message with its completion
// bound.
func (s *System) newWalkMsg() *walkMsg {
	m := &walkMsg{}
	m.done = func(ok bool) { s.walkSent(m, ok) }
	return m
}

// freeWalkMsg ends m's life: its candidate pool and, unless a fault-delayed
// frame is still in flight, m itself go back to their pools. A delayed
// copy is the one delivery that can outlive its hop's send-done — every
// other receiver runs before it — and it may point at m; while one is
// pending, m is left to the collector instead.
//
//pqlint:noalloc
func (s *System) freeWalkMsg(m *walkMsg) {
	if m.pool != nil {
		s.candPools.Put(m.pool[:0])
		m.pool = nil
	}
	if s.net.PendingFaultDeliveries() > 0 {
		return
	}
	*m = walkMsg{done: m.done}
	s.walkMsgs.Put(m)
}

// takePool snapshots a neighbor list (owned by its provider, valid until the
// next query) into a recycled candidate pool; freeWalkMsg hands the pool
// back once the walk's message is done with.
func (s *System) takePool(neighbors []int) []int {
	pool := s.candPools.Get()
	return append(pool, neighbors...)
}

// mark makes the System's n-sized scratch set s.marks hold exactly ids, until
// the next mark.
//
//pqlint:noalloc
func (s *System) mark(ids []int) {
	s.marks.Clear()
	for _, id := range ids {
		s.marks.Add(id)
	}
}

// pickWalkNext selects the candidate index: a uniformly random neighbor for
// PATH; for UNIQUE-PATH a uniformly random unvisited neighbor, falling back
// to any neighbor when all have been visited (Section 4.3).
//
//pqlint:noalloc
func (s *System) pickWalkNext(m *walkMsg, pool []int) int {
	rng := s.engine.Rand()
	if !m.SelfAvoiding {
		return rng.Intn(len(pool))
	}
	s.mark(m.Visited)
	fresh := 0
	for _, c := range pool {
		if !s.marks.Has(c) {
			fresh++
		}
	}
	if fresh == 0 {
		return rng.Intn(len(pool))
	}
	// The k-th unvisited candidate in pool order, k uniform.
	k := rng.Intn(fresh)
	for i, c := range pool {
		if !s.marks.Has(c) {
			if k == 0 {
				return i
			}
			k--
		}
	}
	panic("quorum: pickWalkNext: unvisited candidates miscounted")
}

// walkEnded finalizes bookkeeping when a walk stops (target covered or
// dropped) and hands its last message back: advertise walks complete their
// operation; lookup walks that end without a hit leave the origin to time out
// into a miss.
func (s *System) walkEnded(m *walkMsg) {
	if m.Advertise {
		s.advertiseSettled(m.Op)
	}
	s.freeWalkMsg(m)
}

// sendWalkReply starts a reply from the hit node back along the walk's
// recorded reverse path, visited (which ends in the hit node). The reply's
// first hop is built from a template on this frame's stack.
func (s *System) sendWalkReply(n *netstack.Node, h *walkHeader, visited []int, value string) {
	r := replyMsg{Op: h.Op, Key: h.Key, Value: value, Path: visited}
	s.forwardReply(n, &r, len(visited)-1)
}
