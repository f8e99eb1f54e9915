package quorum

// Expanding-ring flooding (Section 4.4), for lookups: instead of guessing a
// TTL from a known density, the originator issues successive floods with
// growing TTLs until a hit arrives. Robust on any topology, at the cost of
// repeated partial floods.

// maxRingTTL bounds the escalation: the widest ring is a TTL-7 flood.
const maxRingTTL = 7

// ringWait estimates how long one flood round of the given TTL takes to
// spread and for a reply to return.
func ringWait(ttl int) float64 { return 0.4 + 0.25*float64(ttl) }

// ringRound floods one ring of lookup op and schedules the escalation check.
// Each ring is a new flood round of op, so flood deduplication restarts:
// nodes covered by the previous ring process the wider flood.
func (s *System) ringRound(origin int, op opID, key string, ttl int) {
	s.startFlood(origin, op, false, key, "", ttl)
	if ttl >= maxRingTTL {
		return // widest ring out; the op timeout decides the miss
	}
	s.engine.Schedule(ringWait(ttl), func() {
		if s.lookups[op] != nil {
			s.counters.RingEscalations++
			s.ringRound(origin, op, key, ttl+1)
		}
	})
}
