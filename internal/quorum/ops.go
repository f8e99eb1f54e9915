package quorum

import (
	"fmt"
	"probquorum/internal/netstack"

	"probquorum/internal/sim"
)

// OpRef is an opaque handle to an issued operation, usable to query
// per-operation diagnostics such as flood coverage.
type OpRef struct {
	id opID
	ok bool
}

// Valid reports whether the ref names an operation that was actually
// launched. Operations rejected at issue time (dead origin) return an
// invalid ref: their done callback still fires with a zero-value result,
// but the op was never registered, so diagnostics like FloodCoverage
// would silently return zeros indistinguishable from a real op's. Callers
// holding an invalid ref know not to interpret those zeros.
func (r OpRef) Valid() bool { return r.ok }

// Advertise publishes key→value from node origin to an advertise quorum
// using the configured strategy. done (may be nil) fires when the quorum
// access concludes.
func (s *System) Advertise(origin int, key, value string, done func(AdvertiseResult)) OpRef {
	op := s.nextOp(origin)
	// A crashed node cannot publish: fail the op immediately instead of
	// self-hitting its (dead) local store and transmitting.
	if !s.net.Alive(origin) {
		s.counters.DeadOriginOps++
		if done != nil {
			s.engine.Schedule(0, func() { done(AdvertiseResult{Requested: s.cfg.AdvertiseSize}) })
		}
		return OpRef{id: op}
	}
	s.issuedAds++
	s.owned[ownedKey{origin: origin, key: key}] = value
	ad := &pendingAdvertise{id: op, done: done, issued: s.engine.Now(), storedAt: make(map[int]bool)}
	s.ads[op] = ad
	// Deadline against quorum accesses that never reach a terminal event (a
	// walk frame dropped at a receiver leaves no one to call advertiseSettled):
	// force-settle with the placements achieved so far, so s.ads drains and
	// done always fires — under open-loop load a leaked op would be unbounded
	// memory.
	ad.timer = sim.NewTimer(s.engine, func() {
		s.counters.AdvertiseTimeouts++
		s.endAdvertise(ad)
	})
	ad.timer.Reset(s.cfg.AdvertiseTimeoutSecs)
	switch s.cfg.AdvertiseStrategy {
	case Random, RandomOpt:
		s.advertiseRandom(origin, op, key, value)
	case Path, UniquePath:
		ad.res.Requested = s.cfg.AdvertiseSize
		ad.pending = 1
		s.startWalk(origin, walkHeader{
			Op: op, Advertise: true, Key: key, Value: value,
			Target: s.cfg.AdvertiseSize, SelfAvoiding: s.cfg.AdvertiseStrategy == UniquePath,
		})
	case Flooding:
		s.advertiseFlood(origin, op, key, value)
	default:
		panic(fmt.Sprintf("quorum: unknown advertise strategy %v", s.cfg.AdvertiseStrategy))
	}
	return OpRef{id: op, ok: true}
}

// Lookup searches for key from node origin using the configured strategy.
// done fires exactly once: with the value on a hit, or a miss result after
// the configured timeout.
func (s *System) Lookup(origin int, key string, done func(LookupResult)) OpRef {
	op := s.nextOp(origin)
	// A crashed node cannot search: fail the op immediately instead of
	// self-hitting its (dead) local store and transmitting.
	if !s.net.Alive(origin) {
		s.counters.DeadOriginOps++
		if done != nil {
			s.engine.Schedule(0, func() { done(LookupResult{}) })
		}
		return OpRef{id: op}
	}
	s.issuedLookups++
	lk := &pendingLookup{
		id: op, key: key, done: done, issued: s.engine.Now(),
		retriesLeft: s.cfg.LookupRetries,
	}
	s.lookups[op] = lk
	lk.timer = sim.NewTimer(s.engine, func() { s.lookupTimeout(lk) })
	lk.timer.Reset(s.cfg.LookupTimeout)

	// The originator includes itself in the lookup quorum (Section 8.3).
	if value, ok := s.stores[origin].Get(key); ok {
		lk.intersected = true
		s.recordServe(origin, key)
		s.completeLookup(op, value)
		return OpRef{id: op, ok: true}
	}

	s.dispatchLookup(origin, op, key, false)
	return OpRef{id: op, ok: true}
}

// dispatchLookup launches one lookup quorum access for op using the
// configured strategy. It is shared by Lookup, LookupCollect, and timeout
// retries, whose fresh draw runs under the same op.
func (s *System) dispatchLookup(origin int, op opID, key string, collect bool) {
	switch s.cfg.LookupStrategy {
	case Random:
		s.lookupRandom(origin, op, key)
	case RandomOpt:
		s.lookupRandomOpt(origin, op, key)
	case Path, UniquePath:
		s.startWalk(origin, walkHeader{
			Op: op, Key: key, NoHalt: collect,
			Target: s.cfg.LookupSize, SelfAvoiding: s.cfg.LookupStrategy == UniquePath,
		})
	case Flooding:
		// Holders reply along the recorded reverse path.
		s.startFlood(origin, op, false, key, "", s.cfg.LookupTTL)
	case ExpandingRing:
		s.ringRound(origin, op, key, 1)
	default:
		panic(fmt.Sprintf("quorum: unknown lookup strategy %v", s.cfg.LookupStrategy))
	}
}

// CollectResult is the outcome of a LookupCollect.
type CollectResult struct {
	// Values holds every reply received within the window, in arrival
	// order (duplicates possible: several quorum members may reply).
	Values []string
	// Intersected reports whether any holder was reached.
	Intersected bool
}

// LookupCollect searches for key like Lookup but accumulates *all* replies
// arriving within `window` seconds instead of finishing on the first one,
// and disables early halting for this operation so the full lookup quorum
// is covered. This is the access mode versioned data types need: a reader
// (or a writer's read phase) must see the highest version among the
// replicas its quorum intersects (Section 6.1, Section 10).
func (s *System) LookupCollect(origin int, key string, window float64, done func(CollectResult)) OpRef {
	op := s.nextOp(origin)
	if !s.net.Alive(origin) {
		s.counters.DeadOriginOps++
		if done != nil {
			s.engine.Schedule(0, func() { done(CollectResult{}) })
		}
		return OpRef{id: op}
	}
	s.issuedLookups++
	lk := &pendingLookup{
		id: op, key: key, issued: s.engine.Now(),
		collect: true, collectDone: done,
	}
	s.lookups[op] = lk
	lk.timer = sim.NewTimer(s.engine, func() { s.endLookup(lk, false, "") })
	lk.timer.Reset(window)

	// The originator's own store contributes a value.
	if value, ok := s.stores[origin].Get(key); ok {
		lk.intersected = true
		lk.collected = append(lk.collected, value)
	}

	s.dispatchLookup(origin, op, key, true)
	return OpRef{id: op, ok: true}
}

// overhearTap implements the Section 7.2 promiscuous-mode optimization: a
// node that overhears a walk lookup for a key it holds answers immediately,
// effectively widening the walk's coverage to entire neighborhoods.
func (s *System) overhearTap(n *netstack.Node, pkt *netstack.Packet, _ int) {
	m, ok := pkt.Payload.(*walkMsg)
	if !ok || m.Advertise {
		return
	}
	value, found := s.stores[n.ID()].Get(m.Key)
	if !found {
		return
	}
	if s.lookups[m.Op] == nil {
		return
	}
	s.markIntersected(m.Op)
	s.counters.OverhearReplies++
	// An overheard answer is load served at this node, but it keeps its own
	// counter rather than folding into the owner/bystander hit split.
	s.served[n.ID()]++
	// Reply along the overheard walk's path, extended with ourselves; the
	// first hop is the frame's sender, necessarily a direct neighbor.
	path := append(append(make([]int, 0, len(m.Visited)+1), m.Visited...), n.ID())
	r := &replyMsg{Op: m.Op, Key: m.Key, Value: value, Path: path}
	s.forwardReply(n, r, len(path)-1)
}

// storeAt writes a mapping at node id and maintains per-op accounting
// (Placed counts distinct nodes written by the operation). A configured
// Merge function arbitrates against an existing entry.
func (s *System) storeAt(id int, key, value string, owner bool, op opID) {
	st := s.stores[id]
	if old, existed := st.Get(key); existed && s.cfg.Merge != nil {
		value = s.cfg.Merge(key, old, value)
	}
	st.Put(key, value, owner)
	if owner {
		if ad := s.ads[op]; ad != nil && !ad.storedAt[id] {
			ad.storedAt[id] = true
			ad.res.Placed++
		}
	}
}

// cacheAt stores a bystander (cache) entry, honouring Merge.
func (s *System) cacheAt(id int, key, value string) {
	st := s.stores[id]
	if old, existed := st.Get(key); existed && s.cfg.Merge != nil {
		value = s.cfg.Merge(key, old, value)
	}
	st.Put(key, value, false)
}

// markIntersected records that op's lookup quorum touched a holder of the
// key — the pure intersection event of Fig. 13(b), independent of whether
// the reply survives.
func (s *System) markIntersected(op opID) {
	if lk := s.lookups[op]; lk != nil {
		lk.intersected = true
	}
}

// completeLookup finishes op with a hit carrying value. Duplicate replies
// are ignored; in collect mode every reply is accumulated instead and the
// window timer finishes the operation.
func (s *System) completeLookup(op opID, value string) {
	lk := s.lookups[op]
	if lk == nil {
		return
	}
	if s.cfg.Caching {
		s.cacheAt(op.Origin, lk.key, value)
	}
	if lk.collect {
		lk.intersected = true
		lk.collected = append(lk.collected, value)
		return
	}
	s.endLookup(lk, true, value)
}

// lookupTimeout finishes lk as a miss — unless retries remain, in which
// case the lookup backs off exponentially and re-draws a fresh quorum
// (graceful degradation under churn: a miss against a decayed advertise
// quorum is independent across draws, so each retry multiplies the miss
// probability by ε^(1−f) again).
func (s *System) lookupTimeout(lk *pendingLookup) {
	if lk.retriesLeft > 0 && s.net.Alive(lk.id.Origin) {
		lk.retriesLeft--
		lk.attempt++
		s.counters.LookupRetries++
		backoff := s.cfg.RetryBackoffSecs * float64(int(1)<<(lk.attempt-1))
		lk.timer.Reset(backoff + s.cfg.LookupTimeout)
		s.engine.Schedule(backoff, func() { s.retryLookup(lk) })
		return
	}
	s.endLookup(lk, false, "")
}

// retryLookup re-launches a timed-out lookup with a freshly drawn quorum,
// under the same op: its flood, if any, is a new round of it.
func (s *System) retryLookup(lk *pendingLookup) {
	origin := lk.id.Origin
	if s.lookups[lk.id] == nil || !s.net.Alive(origin) {
		return // settled, or crashed since the timeout (the rearmed timer ends the op)
	}
	// A cached reply may have landed since the first attempt.
	if value, ok := s.stores[origin].Get(lk.key); ok {
		lk.intersected = true
		s.recordServe(origin, lk.key)
		s.completeLookup(lk.id, value)
		return
	}
	s.dispatchLookup(origin, lk.id, lk.key, false)
}

// endLookup is where every lookup ends: on its hit (hit, value), at its last
// timeout, or when its collect window closes. It takes lk out of s.lookups —
// a lookup is finished exactly when it has left the map — cancels its timer
// (a no-op once the timer has fired), queues the release of its flood
// rounds and runs the caller's callback.
func (s *System) endLookup(lk *pendingLookup, hit bool, value string) {
	delete(s.lookups, lk.id)
	lk.timer.Cancel()
	s.releaseOpState(lk.id)
	switch {
	case lk.collect:
		if lk.collectDone != nil {
			lk.collectDone(CollectResult{Values: lk.collected, Intersected: lk.intersected})
		}
	case lk.done == nil:
	case hit:
		lk.done(LookupResult{Hit: true, Value: value, Intersected: true, Latency: s.engine.Now() - lk.issued})
	default:
		lk.done(LookupResult{Intersected: lk.intersected})
	}
}

// advertiseSettled decrements the outstanding-contact count and finishes
// the advertise op when it reaches zero.
func (s *System) advertiseSettled(op opID) {
	ad := s.ads[op]
	if ad == nil {
		return
	}
	ad.pending--
	if ad.pending <= 0 {
		s.endAdvertise(ad)
	}
}

// endAdvertise is where every advertise ends: when its last contact settles,
// or at its AdvertiseTimeoutSecs deadline. Like endLookup it takes ad out of
// s.ads, cancels its timer, queues the release of its flood rounds and runs
// the caller's callback.
func (s *System) endAdvertise(ad *pendingAdvertise) {
	delete(s.ads, ad.id)
	ad.timer.Cancel()
	s.releaseOpState(ad.id)
	if ad.done != nil {
		ad.done(ad.res)
	}
}

// FloodCoverage returns how many distinct nodes a Flooding operation
// reached so far (Fig. 5's coverage metric): its one round's size, or, for an
// expanding ring or a retried flood lookup, the union of its rounds.
func (s *System) FloodCoverage(ref OpRef) int {
	rounds := s.floods[ref.id]
	if len(rounds) == 1 {
		return len(rounds[0])
	}
	distinct := make(map[int]struct{})
	for _, r := range rounds {
		for n := range r {
			distinct[n] = struct{}{}
		}
	}
	return len(distinct)
}

// opStateGraceSecs is how long an operation's flood rounds (its reverse-path
// maps) outlive the operation — long enough for straggler
// packets still in flight to resolve, short enough that long simulations
// stay memory-stable.
const opStateGraceSecs = 60

// graceEntry is a settled operation whose state is kept until at.
type graceEntry struct {
	at float64
	op opID
}

// releaseOpState queues the garbage collection of an operation's flood
// rounds for opStateGraceSecs from now. The grace
// is a constant and the clock never goes back, so the queue is in expiry
// order and one engine event, for its head, serves all of it.
//
//pqlint:noalloc
func (s *System) releaseOpState(op opID) {
	s.grace = append(s.grace, graceEntry{at: s.engine.Now() + opStateGraceSecs, op: op}) //pqlint:allow noalloc(grace-queue growth is amortized to the settled-op high-water mark)
	if len(s.grace)-s.graceHead == 1 {
		s.engine.At(s.grace[s.graceHead].at, s.graceFn)
	}
}

// expireOpState drops the flood rounds of the operation at the head of the
// grace queue, at the instant its own grace ends, and arms the next head at that
// entry's own time: one event per operation, as if each had its own.
//
//pqlint:noalloc
func (s *System) expireOpState() {
	op := s.grace[s.graceHead].op
	s.graceHead++
	delete(s.floods, op)
	if 2*s.graceHead >= len(s.grace) {
		// The expired prefix is at least as long as what is left: slide the
		// rest down, which costs at most one copy per expiry.
		n := copy(s.grace, s.grace[s.graceHead:])
		s.grace, s.graceHead = s.grace[:n], 0
	}
	if s.graceHead < len(s.grace) {
		s.engine.At(s.grace[s.graceHead].at, s.graceFn)
	}
}
