package quorum

import (
	"testing"

	"probquorum/internal/aodv"
	"probquorum/internal/membership"
	"probquorum/internal/netstack"
	"probquorum/internal/sim"
)

// TestStaleRetryLeavesReusedLookupAlone: a lookup times out and schedules a
// retry, and its hit lands during the back-off. A lookup issued next must not
// get the first one's record while the retry event still holds it: when the
// stale retry fires, it must not dispatch the new op. On a five-node line with
// a five-node walk the origin sends exactly one walk hop per dispatch.
func TestStaleRetryLeavesReusedLookupAlone(t *testing.T) {
	w := walkLine(5, Config{LookupSize: 5, AdvertiseSize: 5, LookupTimeout: 1, LookupRetries: 1, RetryBackoffSecs: 5})
	dispatched := map[opID]int{}
	w.net.SetDeliveryObserver(func(from, _ int, pkt *netstack.Packet) {
		if m, ok := pkt.Payload.(*walkMsg); ok && from == 0 {
			dispatched[m.Op]++
		}
	})
	var first, second []LookupResult
	var ref1, ref2 OpRef
	w.e.At(0, func() { ref1 = w.sys.Lookup(0, "k", func(r LookupResult) { first = append(first, r) }) })
	// t=1: timeout, retry due at t=6. t=2: the hit.
	w.e.At(2, func() { w.sys.completeLookup(ref1.id, "v") })
	// t=4: the new lookup's own timeout, its retry due at t=9.
	w.e.At(3, func() { ref2 = w.sys.Lookup(0, "k2", func(r LookupResult) { second = append(second, r) }) })
	w.e.Run(8)

	if len(first) != 1 || !first[0].Hit || first[0].Value != "v" {
		t.Fatalf("first lookup resolved with %+v, want one hit", first)
	}
	if got := dispatched[ref2.id]; got != 1 {
		t.Fatalf("the second lookup was dispatched %d times by t=8, want once: the first one's retry ran it", got)
	}
	w.e.Run(20)
	if got := dispatched[ref2.id]; got != 2 || len(second) != 1 || second[0].Hit {
		t.Fatalf("second lookup: %d dispatches, results %+v; want its attempt and its retry, then one miss", got, second)
	}
	if w.sys.lookupRecs.Len() != 2 {
		t.Fatalf("%d lookup records on the free list after both ended, want 2", w.sys.lookupRecs.Len())
	}
}

// heldRouter is a router that holds every send until the test settles it:
// settle delivers the packet at its destination on ok, then runs the send's
// done.
type heldRouter struct {
	net   *netstack.Network
	sends []heldSend
}

type heldSend struct {
	src, dst int
	inner    *netstack.Packet
	done     func(ok bool)
}

func (h *heldRouter) Send(src, dst int, inner *netstack.Packet, done func(ok bool)) {
	h.sends = append(h.sends, heldSend{src, dst, inner, done})
}

func (h *heldRouter) SendScoped(src, dst int, inner *netstack.Packet, _ int, done func(ok bool)) {
	h.Send(src, dst, inner, done)
}

func (h *heldRouter) AddTransitTap(int, aodv.TransitTap) {}

func (h *heldRouter) settle(i int, ok bool) {
	s := h.sends[i]
	if ok {
		h.net.Node(s.dst).DeliverLocal(s.inner, s.src)
	}
	s.done(ok)
}

// TestLateSendsLeaveReusedAdvertiseAlone: a RANDOM advertise is force-settled
// by its deadline while all three of its sends are outstanding, and a second
// advertise starts. When the first one's sends call back late — failures
// among them, which still draw alternates that fail in turn — the second
// advertise's FailedSends, contacted and Placed must not move, and it must
// end on its own three sends alone. Each record goes back to the free list
// once it has ended and its last send has called back.
func TestLateSendsLeaveReusedAdvertiseAlone(t *testing.T) {
	e := sim.NewEngine(6)
	net := netstack.New(e, netstack.Config{N: 30, AvgDegree: 12, Stack: netstack.StackIdeal})
	router := &heldRouter{net: net}
	sys := New(net, router, membership.New(net, membership.Config{RefreshSecs: 1e6}), Config{
		AdvertiseStrategy: Random, LookupStrategy: UniquePath,
		AdvertiseSize: 3, LookupSize: 3, AdvertiseTimeoutSecs: 1,
	})
	var res1, res2 []AdvertiseResult
	e.At(0, func() { sys.Advertise(0, "a", "1", func(r AdvertiseResult) { res1 = append(res1, r) }) })
	e.Run(2)
	if len(res1) != 1 || sys.Counters().AdvertiseTimeouts != 1 || len(router.sends) != 3 {
		t.Fatalf("first advertise: results %+v, %d timeouts, %d sends; want one forced settle with 3 sends out",
			res1, sys.Counters().AdvertiseTimeouts, len(router.sends))
	}
	ref2 := sys.Advertise(1, "b", "2", func(r AdvertiseResult) { res2 = append(res2, r) })
	ad2 := sys.ads[ref2.id]
	if len(router.sends) != 6 || ad2 == nil {
		t.Fatalf("second advertise sent %d messages, want 3", len(router.sends)-3)
	}
	own := append([]int(nil), ad2.contacted...)

	// The first advertise's sends come back: two fail, one succeeds; then
	// every alternate they drew fails too.
	router.settle(0, false)
	router.settle(1, true)
	router.settle(2, false)
	for i := 6; i < len(router.sends); i++ {
		router.settle(i, false)
	}
	if ad2.res.FailedSends != 0 || ad2.res.Placed != 0 || len(ad2.contacted) != 3 || len(res2) != 0 {
		t.Fatalf("the first advertise's late sends reached the second: %+v, contacted %v (was %v), %d results",
			ad2.res, ad2.contacted, own, len(res2))
	}
	for i := range own {
		if ad2.contacted[i] != own[i] {
			t.Fatalf("second advertise's contacted %v, was %v", ad2.contacted, own)
		}
	}
	if sys.adRecs.Len() != 1 {
		t.Fatalf("%d advertise records on the free list after the first one's last send, want 1", sys.adRecs.Len())
	}

	for i := 3; i < 6; i++ {
		router.settle(i, true)
	}
	if len(res2) != 1 || res2[0] != (AdvertiseResult{Requested: 3, Placed: 3}) {
		t.Fatalf("second advertise resolved with %+v, want one result placing all 3 members", res2)
	}
	if sys.adRecs.Len() != 2 {
		t.Fatalf("%d advertise records on the free list after both ended, want 2", sys.adRecs.Len())
	}
}

// TestWalkLookupAllocatesNoOpState pins a UNIQUE-PATH lookup of an absent key
// on a warm static ideal stack, issue to timeout, at what its walk's start
// allocates and nothing more: the op's record, timer and callbacks come from
// the System's free list. A four-node walk stays within walkPathCap, so the
// walk costs exactly its walkStart.
func TestWalkLookupAllocatesNoOpState(t *testing.T) {
	w := walkHopWorld()
	w.sys.cfg.LookupSize, w.sys.cfg.LookupTimeout = 4, 1
	w.net.PrepareNeighbors()
	origin := 0
	lookup := func() {
		origin = (origin + 1) % w.net.N()
		w.sys.Lookup(origin, "absent", nil)
		w.e.Run(w.e.Now() + 2)
	}
	walk := func() {
		origin = (origin + 1) % w.net.N()
		w.sys.startWalk(origin, walkHeader{Op: w.sys.nextOp(origin), Key: "absent", Target: 4, SelfAvoiding: true})
		w.e.Run(w.e.Now() + 2)
	}
	for i := 0; i < 100; i++ {
		lookup() // warm the pools, the grace queue and the lookup map
		walk()
	}
	perWalk := testing.AllocsPerRun(100, walk)
	perLookup := testing.AllocsPerRun(100, lookup)
	if perWalk != 1 || perLookup != perWalk {
		t.Fatalf("a walk lookup allocates %.2f objects, its walk alone %.2f: want 1 each, the walkStart", perLookup, perWalk)
	}
	if lk, ads := len(w.sys.lookups), len(w.sys.ads); lk != 0 || ads != 0 {
		t.Fatalf("%d lookups and %d advertises still pending", lk, ads)
	}
}
