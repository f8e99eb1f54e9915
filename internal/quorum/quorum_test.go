package quorum

import (
	"fmt"
	"testing"

	"probquorum/internal/aodv"
	"probquorum/internal/geom"
	"probquorum/internal/membership"
	"probquorum/internal/mobility"
	"probquorum/internal/netstack"
	"probquorum/internal/sim"
)

// world bundles a full test stack.
type world struct {
	e       *sim.Engine
	net     *netstack.Network
	routing *aodv.Routing
	sys     *System
}

// newWorld builds an ideal-stack world of n nodes at density 12 with AODV,
// membership, and the quorum system under cfg.
func newWorld(seed int64, n int, cfg Config) *world {
	e := sim.NewEngine(seed)
	net := netstack.New(e, netstack.Config{
		N: n, AvgDegree: 12, Stack: netstack.StackIdeal,
	})
	routing := aodv.New(net, aodv.Config{})
	members := membership.New(net, membership.Config{})
	sys := New(net, routing, members, cfg)
	return &world{e: e, net: net, routing: routing, sys: sys}
}

// lineWorld builds an ideal-stack world with nodes at explicit positions.
func lineWorld(seed int64, pts []geom.Point, cfg Config) *world {
	e := sim.NewEngine(seed)
	net := netstack.New(e, netstack.Config{
		N: len(pts), Side: 10000, Mobility: mobility.NewStatic(pts),
		Stack: netstack.StackIdeal,
	})
	routing := aodv.New(net, aodv.Config{})
	members := membership.New(net, membership.Config{})
	sys := New(net, routing, members, cfg)
	return &world{e: e, net: net, routing: routing, sys: sys}
}

// advertise runs one advertise to completion.
func (w *world) advertise(origin int, key, value string) AdvertiseResult {
	var res AdvertiseResult
	done := false
	w.e.Schedule(0, func() {
		w.sys.Advertise(origin, key, value, func(r AdvertiseResult) { res = r; done = true })
	})
	w.e.Run(w.e.Now() + 120)
	if !done {
		panic("advertise did not complete")
	}
	return res
}

// lookup runs one lookup to completion.
func (w *world) lookup(origin int, key string) LookupResult {
	var res LookupResult
	done := false
	w.e.Schedule(0, func() {
		w.sys.Lookup(origin, key, func(r LookupResult) { res = r; done = true })
	})
	w.e.Run(w.e.Now() + w.sys.Config().LookupTimeout + 60)
	if !done {
		panic("lookup did not complete")
	}
	return res
}

// hitRatio advertises keys and issues lookups from random nodes, returning
// the fraction of hits.
func (w *world) hitRatio(keys, lookups int) float64 {
	rng := w.e.NewStream()
	for k := 0; k < keys; k++ {
		origin := w.net.RandomAliveID(rng)
		w.advertise(origin, fmt.Sprintf("key%d", k), fmt.Sprintf("val%d", k))
	}
	hits := 0
	for i := 0; i < lookups; i++ {
		origin := w.net.RandomAliveID(rng)
		if w.lookup(origin, fmt.Sprintf("key%d", i%keys)).Hit {
			hits++
		}
	}
	return float64(hits) / float64(lookups)
}

func TestRandomRandomMix(t *testing.T) {
	w := newWorld(1, 100, Config{
		AdvertiseStrategy: Random, LookupStrategy: Random,
		AdvertiseSize: 20, LookupSize: 12, LookupTimeout: 20,
	})
	if hr := w.hitRatio(4, 24); hr < 0.75 {
		t.Fatalf("RANDOM×RANDOM hit ratio = %.2f, want ≥ 0.75 (bound: %.2f)",
			hr, 1-NonIntersectProb(100, 20, 12))
	}
}

func TestRandomUniquePathMix(t *testing.T) {
	w := newWorld(2, 100, Config{
		AdvertiseStrategy: Random, LookupStrategy: UniquePath,
		AdvertiseSize: 20, LookupSize: 12,
		EarlyHalt: true, Salvation: true, ReplyPathReduction: true,
		LookupTimeout: 20,
	})
	if hr := w.hitRatio(4, 24); hr < 0.7 {
		t.Fatalf("RANDOM×UNIQUE-PATH hit ratio = %.2f, want ≥ 0.7", hr)
	}
}

func TestRandomPathMix(t *testing.T) {
	w := newWorld(3, 100, Config{
		AdvertiseStrategy: Random, LookupStrategy: Path,
		AdvertiseSize: 20, LookupSize: 12,
		EarlyHalt: true, Salvation: true, LookupTimeout: 20,
	})
	if hr := w.hitRatio(4, 20); hr < 0.65 {
		t.Fatalf("RANDOM×PATH hit ratio = %.2f, want ≥ 0.65", hr)
	}
}

func TestRandomFloodingMix(t *testing.T) {
	w := newWorld(4, 100, Config{
		AdvertiseStrategy: Random, LookupStrategy: Flooding,
		AdvertiseSize: 20, LookupTTL: 3, LookupTimeout: 20,
	})
	if hr := w.hitRatio(4, 20); hr < 0.6 {
		t.Fatalf("RANDOM×FLOODING hit ratio = %.2f, want ≥ 0.6", hr)
	}
}

func TestUniquePathUniquePathMix(t *testing.T) {
	// Symmetric walks need combined coverage ≈ n/2 (Section 8.5).
	w := newWorld(5, 100, Config{
		AdvertiseStrategy: UniquePath, LookupStrategy: UniquePath,
		AdvertiseSize: 30, LookupSize: 30,
		EarlyHalt: true, Salvation: true, ReplyPathReduction: true,
		LookupTimeout: 20,
	})
	if hr := w.hitRatio(4, 20); hr < 0.5 {
		t.Fatalf("UNIQUE-PATH×UNIQUE-PATH hit ratio = %.2f, want ≥ 0.5", hr)
	}
}

func TestRandomOptLookup(t *testing.T) {
	w := newWorld(6, 100, Config{
		AdvertiseStrategy: Random, LookupStrategy: RandomOpt,
		AdvertiseSize: 20, RandomOptTargets: 5, LookupTimeout: 20,
	})
	if hr := w.hitRatio(4, 20); hr < 0.6 {
		t.Fatalf("RANDOM×RANDOM-OPT hit ratio = %.2f, want ≥ 0.6", hr)
	}
}

func TestFloodingAdvertise(t *testing.T) {
	w := newWorld(7, 100, Config{
		AdvertiseStrategy: Flooding, LookupStrategy: UniquePath,
		AdvertiseTTL: 3, LookupSize: 10,
		EarlyHalt: true, Salvation: true, LookupTimeout: 20,
	})
	res := w.advertise(0, "k", "v")
	if res.Placed < 10 {
		t.Fatalf("flood advertise placed %d copies, want many", res.Placed)
	}
	if !w.lookup(50, "k").Hit && !w.lookup(70, "k").Hit {
		t.Fatal("no hit after a broad flooding advertise")
	}
}

func TestAdvertisePlacement(t *testing.T) {
	w := newWorld(8, 100, Config{
		AdvertiseStrategy: UniquePath, LookupStrategy: UniquePath,
		AdvertiseSize: 15, LookupSize: 10, Salvation: true, EarlyHalt: true,
	})
	res := w.advertise(3, "k", "v")
	if res.Placed != 15 {
		t.Fatalf("UNIQUE-PATH advertise placed %d, want exactly 15", res.Placed)
	}
	owners := 0
	for id := 0; id < 100; id++ {
		if w.sys.Store(id).Owner("k") {
			owners++
		}
	}
	if owners != 15 {
		t.Fatalf("%d owners in stores, want 15", owners)
	}
}

func TestRandomAdvertisePlacement(t *testing.T) {
	w := newWorld(9, 100, Config{
		AdvertiseStrategy: Random, LookupStrategy: Random,
		AdvertiseSize: 20, LookupSize: 12,
	})
	res := w.advertise(0, "k", "v")
	if res.Requested != 20 {
		t.Fatalf("Requested = %d", res.Requested)
	}
	if res.Placed < 17 {
		t.Fatalf("RANDOM advertise placed %d/20 on an ideal static network", res.Placed)
	}
}

func TestLookupMiss(t *testing.T) {
	w := newWorld(10, 50, Config{
		AdvertiseStrategy: Random, LookupStrategy: UniquePath,
		AdvertiseSize: 14, LookupSize: 8, EarlyHalt: true, Salvation: true,
		LookupTimeout: 5,
	})
	res := w.lookup(7, "never-advertised")
	if res.Hit || res.Intersected {
		t.Fatalf("lookup of absent key: %+v", res)
	}
}

func TestEarlyHaltSavesMessages(t *testing.T) {
	run := func(halt bool) (msgs int64, hits int) {
		w := newWorld(11, 100, Config{
			AdvertiseStrategy: UniquePath, LookupStrategy: UniquePath,
			AdvertiseSize: 40, LookupSize: 20, // dense advertise: early hits
			EarlyHalt: halt, Salvation: true, LookupTimeout: 20,
		})
		w.advertise(0, "k", "v")
		before := w.net.Stats().Get(netstack.CtrAppMsgs)
		issued := 0
		for origin := 1; origin < 100 && issued < 10; origin++ {
			if _, has := w.sys.Store(origin).Get("k"); has {
				continue // only origins that do not already hold the key
			}
			issued++
			if w.lookup(origin, "k").Hit {
				hits++
			}
		}
		return w.net.Stats().Get(netstack.CtrAppMsgs) - before, hits
	}
	with, hitsWith := run(true)
	without, hitsWithout := run(false)
	if hitsWith < 7 || hitsWithout < 7 {
		t.Fatalf("hit counts too low to compare: %d, %d", hitsWith, hitsWithout)
	}
	if with >= without {
		t.Fatalf("early halting did not save messages: %d vs %d", with, without)
	}
}

func TestSalvationUnderLoss(t *testing.T) {
	e := sim.NewEngine(12)
	net := netstack.New(e, netstack.Config{
		N: 100, AvgDegree: 12, Stack: netstack.StackIdeal, LossProb: 0.72,
	})
	// 0.72^7 ≈ 10% per-hop failure after MAC retries: salvation must kick
	// in and keep walks alive.
	routing := aodv.New(net, aodv.Config{})
	members := membership.New(net, membership.Config{})
	sys := New(net, routing, members, Config{
		AdvertiseStrategy: UniquePath, LookupStrategy: UniquePath,
		AdvertiseSize: 30, LookupSize: 30,
		EarlyHalt: true, Salvation: true, LookupTimeout: 20,
	})
	w := &world{e: e, net: net, routing: routing, sys: sys}
	w.advertise(0, "k", "v")
	for i := 0; i < 10; i++ {
		w.lookup(10+i, "k")
	}
	if sys.Counters().Salvations == 0 {
		t.Fatal("no salvations despite heavy loss")
	}
	if sys.Counters().WalkDrops > 6 {
		t.Fatalf("%d walk drops with salvation enabled", sys.Counters().WalkDrops)
	}
}

func TestCachingServesRepeatLookups(t *testing.T) {
	w := newWorld(13, 100, Config{
		AdvertiseStrategy: Random, LookupStrategy: UniquePath,
		AdvertiseSize: 20, LookupSize: 12,
		EarlyHalt: true, Salvation: true, Caching: true, LookupTimeout: 20,
	})
	w.advertise(0, "k", "v")
	first := w.lookup(42, "k")
	if !first.Hit {
		t.Skip("first lookup missed; caching not exercised")
	}
	before := w.net.Stats().Get(netstack.CtrAppMsgs)
	second := w.lookup(42, "k")
	after := w.net.Stats().Get(netstack.CtrAppMsgs)
	if !second.Hit {
		t.Fatal("repeat lookup missed")
	}
	if after != before {
		t.Fatalf("repeat lookup from the same origin cost %d messages, want 0 (origin cache)", after-before)
	}
	if second.Latency != 0 {
		t.Fatalf("cache hit latency = %v", second.Latency)
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() (float64, int64) {
		w := newWorld(99, 80, Config{
			AdvertiseStrategy: Random, LookupStrategy: UniquePath,
			AdvertiseSize: 18, LookupSize: 11,
			EarlyHalt: true, Salvation: true, LookupTimeout: 15,
		})
		hr := w.hitRatio(3, 12)
		return hr, w.net.Stats().Get(netstack.CtrAppMsgs)
	}
	h1, m1 := run()
	h2, m2 := run()
	if h1 != h2 || m1 != m2 {
		t.Fatalf("same-seed runs diverge: (%v,%d) vs (%v,%d)", h1, m1, h2, m2)
	}
}

func TestFloodCoverageGrowsWithTTL(t *testing.T) {
	prev := 0
	for _, ttl := range []int{1, 2, 3, 4} {
		w := newWorld(14, 200, Config{
			AdvertiseStrategy: Flooding, LookupStrategy: Flooding,
			AdvertiseTTL: ttl, LookupTTL: ttl, LookupTimeout: 10,
		})
		ref := w.sys.Advertise(w.net.RandomAliveID(w.e.NewStream()), "k", "v", nil)
		w.e.Run(w.e.Now() + 30)
		cov := w.sys.FloodCoverage(ref)
		if cov <= prev {
			t.Fatalf("coverage %d at TTL %d not above %d", cov, ttl, prev)
		}
		prev = cov
	}
}

// Reply-path tests on a deterministic line + bypass topology:
//
//	0 --- 1 --- 2 --- 3 --- 4        (150 m spacing)
//	        \   |   /
//	          5 (bypass at (300,100))
func bypassTopology() []geom.Point {
	return []geom.Point{
		{X: 0, Y: 0}, {X: 150, Y: 0}, {X: 300, Y: 0}, {X: 450, Y: 0}, {X: 600, Y: 0},
		{X: 300, Y: 100},
	}
}

// primeReply installs a pending lookup op and returns it with a reply
// positioned at node 4 holding path 0→1→2→3→4.
func primeReply(w *world, origin int) (opID, *replyMsg, *LookupResult) {
	op := w.sys.nextOp(origin)
	var res LookupResult
	got := &res
	lk := w.sys.newLookup()
	lk.id, lk.key, lk.issued, lk.done = op, "k", w.e.Now(), func(r LookupResult) { *got = r }
	lk.timer.Reset(10)
	w.sys.lookups[op] = lk
	r := &replyMsg{Op: op, Key: "k", Value: "v", Path: []int{0, 1, 2, 3, 4}, Idx: 4}
	return op, r, got
}

func TestReplyTravelsReversePath(t *testing.T) {
	w := lineWorld(20, bypassTopology(), Config{
		AdvertiseStrategy: Random, LookupStrategy: UniquePath,
		AdvertiseSize: 2, LookupSize: 2, LookupTimeout: 10,
	})
	_, r, res := primeReply(w, 0)
	w.e.Schedule(0, func() { w.sys.forwardReply(w.net.Node(4), r, r.Idx) })
	w.e.Run(20)
	if !res.Hit || res.Value != "v" {
		t.Fatalf("reply did not arrive: %+v", *res)
	}
}

func TestReplyDroppedWithoutRepair(t *testing.T) {
	w := lineWorld(21, bypassTopology(), Config{
		AdvertiseStrategy: Random, LookupStrategy: UniquePath,
		AdvertiseSize: 2, LookupSize: 2, LookupTimeout: 5,
		ReplyLocalRepair: false,
	})
	w.net.Fail(3) // reply's first hop 4→3 breaks
	_, r, res := primeReply(w, 0)
	w.e.Schedule(0, func() { w.sys.forwardReply(w.net.Node(4), r, r.Idx) })
	w.e.Run(30)
	if res.Hit {
		t.Fatal("reply survived a broken path without repair")
	}
	if w.sys.Counters().ReplyDrops == 0 {
		t.Fatal("ReplyDrops not counted")
	}
}

func TestReplyLocalRepairRescues(t *testing.T) {
	w := lineWorld(22, bypassTopology(), Config{
		AdvertiseStrategy: Random, LookupStrategy: UniquePath,
		AdvertiseSize: 2, LookupSize: 2, LookupTimeout: 10,
		ReplyLocalRepair: true,
	})
	w.net.Fail(2) // mid-path node dies; bypass node 5 links 1 and 3
	_, r, res := primeReply(w, 0)
	// Reply starts at 4; hop to 3 succeeds; 3→2 fails; scoped routing
	// from 3 reaches 1 via the bypass.
	w.e.Schedule(0, func() { w.sys.forwardReply(w.net.Node(4), r, r.Idx) })
	w.e.Run(30)
	if !res.Hit {
		t.Fatalf("repair failed to deliver the reply: %+v (counters %+v)", *res, w.sys.Counters())
	}
	if w.sys.Counters().LocalRepairs == 0 && w.sys.Counters().FullRouteRepairs == 0 {
		t.Fatal("no repair counted despite a broken path")
	}
}

func TestReplyPathReductionSkipsHops(t *testing.T) {
	// Loop topology: path 0→1→2→3→4 but node 4 is physically adjacent to
	// node 0, so the reply should jump directly 4→0.
	pts := []geom.Point{
		{X: 0, Y: 0}, {X: 150, Y: 0}, {X: 300, Y: 60}, {X: 150, Y: 120}, {X: 0, Y: 120},
	}
	w := lineWorld(23, pts, Config{
		AdvertiseStrategy: Random, LookupStrategy: UniquePath,
		AdvertiseSize: 2, LookupSize: 2, LookupTimeout: 10,
		ReplyPathReduction: true,
	})
	before := w.net.Stats().Get(netstack.CtrAppMsgs)
	_, r, res := primeReply(w, 0)
	w.e.Schedule(0, func() { w.sys.forwardReply(w.net.Node(4), r, r.Idx) })
	w.e.Run(20)
	used := w.net.Stats().Get(netstack.CtrAppMsgs) - before
	if !res.Hit {
		t.Fatal("reply lost")
	}
	if used != 1 {
		t.Fatalf("path reduction used %d messages, want 1 (direct 4→0)", used)
	}
	if w.sys.Counters().PathReductions == 0 {
		t.Fatal("PathReductions not counted")
	}
}

func TestConfigValidation(t *testing.T) {
	e := sim.NewEngine(1)
	net := netstack.New(e, netstack.Config{N: 10, Stack: netstack.StackIdeal})
	mustPanic(t, func() {
		New(net, nil, nil, Config{AdvertiseStrategy: Random, LookupStrategy: Random})
	})
}

func TestIntersectedWithoutHit(t *testing.T) {
	// Kill the whole reverse path after intersection: Intersected must be
	// reported even though the reply is lost.
	w := lineWorld(25, bypassTopology(), Config{
		AdvertiseStrategy: Random, LookupStrategy: UniquePath,
		AdvertiseSize: 2, LookupSize: 2, LookupTimeout: 3,
		ReplyLocalRepair: false,
	})
	op, r, res := primeReply(w, 0)
	w.sys.markIntersected(op)
	w.net.Fail(3)
	w.net.Fail(5)
	w.e.Schedule(0, func() { w.sys.forwardReply(w.net.Node(4), r, r.Idx) })
	w.e.Run(30)
	if res.Hit {
		t.Fatal("unexpected hit")
	}
	if !res.Intersected {
		t.Fatal("Intersected flag lost on reply failure")
	}
}

func TestWalkExpirationOnSmallComponent(t *testing.T) {
	// Two isolated nodes: a lookup walk with target 10 can never cover it
	// and must be terminated by the step cap, not wander forever.
	pts := []geom.Point{{X: 0, Y: 0}, {X: 150, Y: 0}}
	w := lineWorld(30, pts, Config{
		AdvertiseStrategy: UniquePath, LookupStrategy: UniquePath,
		AdvertiseSize: 2, LookupSize: 10, Salvation: true, EarlyHalt: true,
		LookupTimeout: 5,
	})
	res := w.lookup(0, "absent")
	if res.Hit {
		t.Fatal("impossible hit")
	}
	if w.sys.Counters().WalkExpirations == 0 {
		t.Fatal("trapped walk was not expired by the step cap")
	}
	used := w.net.Stats().Get(netstack.CtrAppMsgs)
	if used > int64(8*10+25) {
		t.Fatalf("trapped walk used %d messages, cap should bound it", used)
	}
}
