package quorum

// Expanding-ring flooding (Section 4.4): instead of guessing a TTL from a
// known density, the originator issues successive floods with growing TTLs
// until the access is satisfied — for lookups, until a hit arrives; for
// advertise, until the flood covers the target quorum size. Robust on any
// topology, at the cost of repeated partial floods.

// maxRingTTL bounds the escalation: the widest ring is a TTL-7 flood.
const maxRingTTL = 7

// ringWait estimates how long one flood round of the given TTL takes to
// spread and for a reply to return.
func ringWait(ttl int) float64 { return 0.4 + 0.25*float64(ttl) }

// lookupExpandingRing starts the first ring of an expanding-ring lookup.
func (s *System) lookupExpandingRing(origin int, op opID, key string) {
	s.ringRound(origin, op, key, 1)
}

// ringRound floods one ring and schedules the escalation check. op may be
// the root lookup or a retry re-draw; pending state lives at the root.
func (s *System) ringRound(origin int, op opID, key string, ttl int) {
	root := s.resolve(op)
	lk := s.lookups[root]
	if lk == nil || lk.finished {
		return
	}
	// Each round is a child operation so flood deduplication restarts:
	// nodes covered by the previous ring must process the wider flood.
	child := s.nextOp(origin)
	s.addChild(root, child)
	s.startFlood(origin, child, false, key, "", ttl)

	if ttl >= maxRingTTL {
		return // widest ring out; the op timeout decides the miss
	}
	s.engine.Schedule(ringWait(ttl), func() {
		if cur := s.lookups[root]; cur != nil && !cur.finished {
			s.counters.RingEscalations++
			s.ringRound(origin, root, key, ttl+1)
		}
	})
}

// advertiseExpandingRing grows floods until the advertise quorum size is
// covered (or the ring limit is reached).
func (s *System) advertiseExpandingRing(origin int, op opID, key, value string) {
	ad := s.ads[op]
	ad.res.Requested = s.cfg.AdvertiseSize
	ad.pending = 1
	s.advertiseRingRound(origin, op, key, value, 1)
}

func (s *System) advertiseRingRound(origin int, op opID, key, value string, ttl int) {
	child := s.nextOp(origin)
	s.addChild(op, child)
	s.startFlood(origin, child, true, key, value, ttl)

	s.engine.Schedule(ringWait(ttl), func() {
		ad := s.ads[op]
		if ad == nil || ad.finished {
			return
		}
		if ad.res.Placed >= s.cfg.AdvertiseSize || ttl >= maxRingTTL {
			s.advertiseSettled(op)
			return
		}
		s.counters.RingEscalations++
		s.advertiseRingRound(origin, op, key, value, ttl+1)
	})
}
