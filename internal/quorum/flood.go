package quorum

import "probquorum/internal/netstack"

// floodMsg carries a FLOODING quorum access. The packet's TTL scopes the
// flood; each node records the previous hop so replies can travel the
// reverse path (Section 4.4).
type floodMsg struct {
	Op         opID
	Advertise  bool
	Key, Value string
}

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

// lookupFlood searches by TTL-scoped flooding; holders reply along the
// recorded reverse path.
func (s *System) lookupFlood(origin int, op opID, key string) {
	s.startFlood(origin, op, false, key, "", s.cfg.LookupTTL)
}

// startFlood covers the origin under op, which may be a child operation (an
// expanding-ring round; storeAt resolves it to its root), and broadcasts the
// flood after a jitter.
func (s *System) startFlood(origin int, op opID, advertise bool, key, value string, ttl int) {
	prev := make(map[int]int)
	prev[origin] = origin // origin is covered and terminates replies
	s.floodPrev[op] = prev
	s.floodCoverage[op] = 1
	if advertise {
		s.storeAt(origin, key, value, true, op)
	}
	if ttl < 1 {
		return
	}
	m := &floodMsg{Op: op, Advertise: advertise, Key: key, Value: value}
	pkt := s.newPacket(origin, netstack.Broadcast, m)
	pkt.TTL = ttl
	node := s.net.Node(origin)
	s.engine.Schedule(s.engine.Rand().Float64()*floodJitterSecs, func() {
		node.BroadcastOneHop(pkt)
	})
}

// handleFlood processes a flood packet at node n, arriving from `from`.
func (s *System) handleFlood(n *netstack.Node, pkt *netstack.Packet, m *floodMsg, from int) {
	prev := s.floodPrev[m.Op]
	if prev == nil {
		prev = make(map[int]int)
		s.floodPrev[m.Op] = prev
	}
	if _, seen := prev[n.ID()]; seen {
		return // duplicate copy
	}
	prev[n.ID()] = from
	s.floodCoverage[m.Op]++

	if m.Advertise {
		s.storeAt(n.ID(), m.Key, m.Value, true, m.Op)
	} else if value, ok := s.stores[n.ID()].Get(m.Key); ok {
		// Even nodes at the flood's TTL boundary reply (Section 8.4).
		s.markIntersected(m.Op)
		s.recordServe(n.ID(), m.Key)
		if lk := s.lookups[s.resolve(m.Op)]; lk != nil && !lk.finished {
			r := &replyMsg{Op: m.Op, Key: m.Key, Value: value, Flood: true}
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
