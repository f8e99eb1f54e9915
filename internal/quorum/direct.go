package quorum

import "probquorum/internal/netstack"

// prefetchRoutes readies the router for an imminent fan-out from origin to
// members: AODV starts one route discovery for all of them, the oracle with
// its route cache builds their routes in bulk. A no-op unless the router
// exposes a prefetcher.
func (s *System) prefetchRoutes(origin int, members []int) {
	if s.prefetcher != nil {
		s.prefetcher.PrefetchRoutes(origin, members)
	}
}

// directMsg carries a RANDOM / RANDOM-OPT quorum access to the members it is
// routed to. An access builds one and sends it to every member it contacts,
// adaptation alternates included, and nobody changes it once sent. The inner
// packet the router carries it in is part of the same object and names no
// member: a router addresses each send from its dst argument.
type directMsg struct {
	Op         opID
	Advertise  bool
	Key, Value string

	pkt netstack.Packet
}

// newDirect builds op's one message from origin.
func (s *System) newDirect(origin int, op opID, advertise bool, key, value string) *directMsg {
	m := &directMsg{Op: op, Advertise: advertise, Key: key, Value: value}
	m.pkt = s.packet(origin, netstack.Broadcast, m)
	return m
}

// advertiseRandom contacts |Qa| uniformly sampled members through routing.
// On a routing failure the origin adapts by redirecting the contact to a
// fresh random node (Section 6.2), once per member. The drawn members share
// the record's memberSent and the alternates its alternateSent.
func (s *System) advertiseRandom(origin int, op opID, key, value string) {
	ad := s.ads[op]
	members := s.members.Pick(s.engine.Rand(), origin, s.cfg.AdvertiseSize)
	s.observeMembers(origin, members)
	ad.res.Requested = s.cfg.AdvertiseSize
	if len(members) == 0 {
		ad.pending = 1
		s.advertiseSettled(op)
		return
	}
	ad.pending, ad.sends = len(members), len(members)
	ad.origin, ad.contacted = origin, members
	s.prefetchRoutes(origin, members)
	msg := s.newDirect(origin, op, true, key, value)
	ad.msg = msg
	for _, m := range members {
		s.routing.Send(origin, m, &msg.pkt, ad.memberSent)
	}
}

// memberSent is a drawn member's send-done (ad.memberSent). A failed contact
// goes on as an alternate's send when a fresh member can be drawn; this runs
// also after a deadline has force-settled ad, as every send-done does.
func (s *System) memberSent(ad *pendingAdvertise, ok bool) {
	if !ok {
		if alt, found := s.pickFreshMember(ad.origin, ad.contacted); found {
			s.counters.Adaptations++
			ad.contacted = append(ad.contacted, alt)
			s.routing.Send(ad.origin, alt, &ad.msg.pkt, ad.alternateSent)
			return
		}
	}
	s.sendSettled(ad, ok)
}

// sendSettled ends one member contact of ad (ad.alternateSent): it counts a
// failure and settles the contact, or, once ad has ended, hands the record
// back when this was its last send.
func (s *System) sendSettled(ad *pendingAdvertise, ok bool) {
	ad.sends--
	if !ok {
		ad.res.FailedSends++
	}
	if !ad.ended {
		s.contactSettled(ad)
	} else if ad.sends == 0 {
		s.freeAdvertise(ad)
	}
}

// pickFreshMember draws a membership-view node the op has not contacted yet.
func (s *System) pickFreshMember(origin int, contacted []int) (int, bool) {
	view := s.members.View(origin)
	rng := s.engine.Rand()
	s.mark(contacted)
	for attempts := 0; attempts < 2*len(view) && len(view) > 0; attempts++ {
		c := view[rng.Intn(len(view))]
		if !s.marks.Has(c) && c != origin {
			return c, true
		}
	}
	return 0, false
}

// lookupRandom contacts |Qℓ| sampled members in parallel; each member
// holding the key replies through routing.
func (s *System) lookupRandom(origin int, op opID, key string) {
	members := s.members.Pick(s.engine.Rand(), origin, s.cfg.LookupSize)
	s.observeMembers(origin, members)
	if len(members) == 0 {
		return // origin-only quorum: timeout will declare the miss
	}
	s.sendLookups(origin, op, key, members)
}

// lookupRandomOpt sends ~ln n routed lookups; every transit node performs a
// local lookup via the cross-layer tap, so the effective quorum is the union
// of the routes (Section 4.5).
func (s *System) lookupRandomOpt(origin int, op opID, key string) {
	members := s.members.Pick(s.engine.Rand(), origin, s.cfg.RandomOptTargets)
	s.observeMembers(origin, members)
	s.sendLookups(origin, op, key, members)
}

// sendLookups routes op's one lookup message to every member.
func (s *System) sendLookups(origin int, op opID, key string, members []int) {
	s.prefetchRoutes(origin, members)
	msg := s.newDirect(origin, op, false, key, "")
	for _, m := range members {
		s.routing.Send(origin, m, &msg.pkt, nil)
	}
}

// handleDirect processes a routed quorum message at its final destination.
func (s *System) handleDirect(n *netstack.Node, m *directMsg) {
	if m.Advertise {
		s.storeAt(n.ID(), m.Key, m.Value, true, m.Op)
		return
	}
	value, ok := s.stores[n.ID()].Get(m.Key)
	if !ok {
		return // member does not hold the key: no reply (Section 8)
	}
	s.markIntersected(m.Op)
	s.recordServe(n.ID(), m.Key)
	s.sendRoutedReply(n.ID(), m.Op, m.Key, value)
}

// sendRoutedReply returns a hit to the originator via routing.
func (s *System) sendRoutedReply(from int, op opID, key, value string) {
	r := &replyMsg{Op: op, Key: key, Value: value}
	s.routing.Send(from, op.Origin, s.routedReply(r, from, op.Origin), nil)
}

// transitTap is the RANDOM-OPT cross-layer hook: it observes every routed
// quorum packet at every transit node. Advertise messages are stored and
// passed on; lookup messages are answered and consumed on a hit.
func (s *System) transitTap(at *netstack.Node, inner *netstack.Packet) bool {
	if inner.Proto != netstack.ProtoQuorum {
		return false
	}
	switch m := inner.Payload.(type) {
	case *directMsg:
		if m.Advertise {
			if s.cfg.AdvertiseStrategy == RandomOpt {
				s.storeAt(at.ID(), m.Key, m.Value, true, m.Op)
			}
			return false
		}
		if s.cfg.LookupStrategy != RandomOpt {
			return false
		}
		value, ok := s.stores[at.ID()].Get(m.Key)
		if !ok {
			return false
		}
		s.markIntersected(m.Op)
		s.sendRoutedReply(at.ID(), m.Op, m.Key, value)
		return true // early halt: stop forwarding the lookup (Section 4.5)
	case *replyMsg:
		if s.cfg.Caching {
			s.cacheAt(at.ID(), m.Key, m.Value)
		}
		return false
	default:
		return false
	}
}
