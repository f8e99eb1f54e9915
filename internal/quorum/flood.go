package quorum

import "probquorum/internal/netstack"

// floodMsg carries a FLOODING quorum access: round Round of operation Op.
// The packet's TTL scopes the flood; each node records the previous hop so
// replies can travel the reverse path (Section 4.4).
type floodMsg struct {
	Op         opID
	Round      int
	Advertise  bool
	Key, Value string
}

// floodRound is one flood of an operation: every node it reached, mapped to
// the previous hop it came from (the origin maps to itself). Deduplication
// is per round, so a wider ring is processed by the nodes an earlier one
// covered.
type floodRound map[int]int

// floodJitterSecs is the random rebroadcast delay preventing synchronized
// collisions (paper: 10 ms, after RFC 5148).
const floodJitterSecs = 0.010

// advertiseFlood publishes by TTL-scoped flooding: every node the flood
// reaches joins the advertise quorum.
func (s *System) advertiseFlood(origin int, op opID, key, value string) {
	ad := s.ads[op]
	ad.res.Requested = s.cfg.AdvertiseSize
	ad.pending = 1
	ttl := s.cfg.AdvertiseTTL
	s.startFlood(origin, op, true, key, value, ttl)
	// A flood has no deterministic end; settle after the TTL's worth of
	// hop latency plus jitter, generously bounded.
	s.engine.Schedule(1.0+0.2*float64(ttl), func() { s.advertiseSettled(op) })
}

// startFlood opens a new round of op covering the origin and broadcasts it
// after a jitter.
func (s *System) startFlood(origin int, op opID, advertise bool, key, value string, ttl int) {
	round := len(s.floods[op])
	s.floods[op] = append(s.floods[op], floodRound{origin: origin})
	if advertise {
		s.storeAt(origin, key, value, true, op)
	}
	if ttl < 1 {
		return
	}
	m := &floodMsg{Op: op, Round: round, Advertise: advertise, Key: key, Value: value}
	pkt := s.newPacket(origin, netstack.Broadcast, m)
	pkt.TTL = ttl
	node := s.net.Node(origin)
	s.engine.Schedule(s.engine.Rand().Float64()*floodJitterSecs, func() {
		node.BroadcastOneHop(pkt)
	})
}

// roundOf returns round r of op, or nil once op's grace is over.
func (s *System) roundOf(op opID, r int) floodRound {
	if rounds := s.floods[op]; r < len(rounds) {
		return rounds[r]
	}
	return nil
}

// handleFlood processes a flood packet at node n, arriving from `from`. A
// frame that outlives its operation's grace finds no round and is dropped.
func (s *System) handleFlood(n *netstack.Node, pkt *netstack.Packet, m *floodMsg, from int) {
	prev := s.roundOf(m.Op, m.Round)
	if prev == nil {
		return
	}
	if _, seen := prev[n.ID()]; seen {
		return // duplicate copy
	}
	prev[n.ID()] = from

	if m.Advertise {
		s.storeAt(n.ID(), m.Key, m.Value, true, m.Op)
	} else if value, ok := s.stores[n.ID()].Get(m.Key); ok {
		// Even nodes at the flood's TTL boundary reply (Section 8.4).
		s.markIntersected(m.Op)
		s.recordServe(n.ID(), m.Key)
		if s.lookups[m.Op] != nil {
			r := &replyMsg{Op: m.Op, Round: m.Round, Key: m.Key, Value: value, Flood: true}
			s.forwardFloodReply(n, r)
		}
	}

	if pkt.TTL <= 1 {
		return
	}
	fwd := pkt.Clone()
	fwd.TTL--
	fwd.Hops++
	fwd.Src = n.ID()
	s.engine.Schedule(s.engine.Rand().Float64()*floodJitterSecs, func() {
		n.BroadcastOneHop(fwd)
	})
}
