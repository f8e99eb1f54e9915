package quorum

import (
	"fmt"
	"testing"

	"probquorum/internal/netstack"
)

func TestExpandingRingLookup(t *testing.T) {
	w := newWorld(40, 150, Config{
		AdvertiseStrategy: Random, LookupStrategy: ExpandingRing,
		AdvertiseSize: 25, LookupTimeout: 20,
	})
	hr := w.hitRatio(4, 20)
	if hr < 0.7 {
		t.Fatalf("expanding-ring lookup hit ratio = %.2f", hr)
	}
}

func TestExpandingRingEscalates(t *testing.T) {
	// Sparse advertise quorum far from the looker: the first rings miss
	// and escalation must kick in.
	w := newWorld(41, 200, Config{
		AdvertiseStrategy: Random, LookupStrategy: ExpandingRing,
		AdvertiseSize: 6, LookupTimeout: 25,
	})
	w.advertise(0, "k", "v")
	for i := 0; i < 6; i++ {
		w.lookup(30*i%200, "k")
	}
	if w.sys.Counters().RingEscalations == 0 {
		t.Fatal("no ring escalations despite a tiny advertise quorum")
	}
}

func TestExpandingRingCheaperOnEarlyHit(t *testing.T) {
	// With the key on half the nodes, an expanding-ring lookup usually
	// stops at TTL 1 and costs far less than a wide fixed-TTL flood.
	run := func(strategy Strategy, ttl int) int64 {
		w := newWorld(42, 150, Config{
			AdvertiseStrategy: Random, LookupStrategy: strategy,
			AdvertiseSize: 75, LookupTTL: ttl, LookupTimeout: 15,
		})
		w.advertise(0, "k", "v")
		before := w.net.Stats().Get(netstack.CtrAppMsgs)
		issued := 0
		for origin := 1; origin < 150 && issued < 8; origin++ {
			if _, has := w.sys.Store(origin).Get("k"); has {
				continue
			}
			issued++
			w.lookup(origin, "k")
		}
		return w.net.Stats().Get(netstack.CtrAppMsgs) - before
	}
	ring := run(ExpandingRing, 0)
	wide := run(Flooding, 5)
	if ring >= wide {
		t.Fatalf("expanding ring (%d msgs) not cheaper than TTL-5 flooding (%d)", ring, wide)
	}
}

// TestNewRejectsExpandingRingAdvertise: EXPANDING-RING is a lookup strategy
// only, so New panics on it as an advertise strategy, like on its other
// configuration errors, instead of building a system Advertise cannot run.
func TestNewRejectsExpandingRingAdvertise(t *testing.T) {
	defer func() {
		if r := recover(); r != "quorum: EXPANDING-RING is a lookup strategy only" {
			t.Fatalf("New recovered %v, want its EXPANDING-RING advertise panic", r)
		}
	}()
	newWorld(43, 20, Config{AdvertiseStrategy: ExpandingRing, LookupStrategy: Random})
}

func TestOverhearingImprovesHitRatio(t *testing.T) {
	run := func(overhear bool) (float64, int) {
		w := newWorld(48, 150, Config{
			AdvertiseStrategy: Random, LookupStrategy: UniquePath,
			AdvertiseSize: 12, LookupSize: 8, // undersized: many misses
			EarlyHalt: true, Salvation: true, Overhearing: overhear,
			LookupTimeout: 15,
		})
		hr := w.hitRatio(4, 30)
		return hr, w.sys.Counters().OverhearReplies
	}
	base, _ := run(false)
	boosted, replies := run(true)
	if replies == 0 {
		t.Fatal("overhearing produced no replies")
	}
	if boosted < base {
		t.Fatalf("overhearing reduced hit ratio: %.2f → %.2f", base, boosted)
	}
}

func TestNewStrategyStrings(t *testing.T) {
	if ExpandingRing.String() != "EXPANDING-RING" {
		t.Fatal("strategy strings")
	}
}

func TestAllMixesSmoke(t *testing.T) {
	// Every advertise×lookup combination must run without panicking and
	// produce some hits on a well-provisioned network, except that New
	// rejects an EXPANDING-RING advertise.
	strategies := []Strategy{Random, RandomOpt, Path, UniquePath, Flooding, ExpandingRing}
	for _, adv := range strategies {
		for _, lk := range strategies {
			t.Run(fmt.Sprintf("%v_x_%v", adv, lk), func(t *testing.T) {
				if adv == ExpandingRing {
					defer func() {
						if recover() == nil {
							t.Fatal("New accepted an EXPANDING-RING advertise")
						}
					}()
				}
				w := newWorld(49, 80, Config{
					AdvertiseStrategy: adv, LookupStrategy: lk,
					AdvertiseSize: 18, LookupSize: 12,
					AdvertiseTTL: 3, LookupTTL: 3, RandomOptTargets: 4,
					EarlyHalt: true, Salvation: true, ReplyPathReduction: true,
					LookupTimeout: 15,
				})
				w.advertise(0, "k", "v")
				hits := 0
				for i := 0; i < 5; i++ {
					if w.lookup((i*13+7)%80, "k").Hit {
						hits++
					}
				}
				if hits == 0 {
					t.Fatalf("%v×%v produced zero hits", adv, lk)
				}
			})
		}
	}
}

func TestLookupCollectGathersAllReplies(t *testing.T) {
	w := newWorld(50, 100, Config{
		AdvertiseStrategy: Random, LookupStrategy: Random,
		AdvertiseSize: 25, LookupSize: 25, LookupTimeout: 20,
	})
	w.advertise(0, "k", "v")
	var res CollectResult
	finished := false
	w.e.Schedule(0, func() {
		w.sys.LookupCollect(10, "k", 5, func(r CollectResult) { res = r; finished = true })
	})
	w.e.Run(w.e.Now() + 30)
	if !finished {
		t.Fatal("collect lookup never finished")
	}
	if !res.Intersected {
		t.Fatal("collect lookup missed a 25x25 quorum on n=100")
	}
	// With |Qa|=|Qℓ|=25 over n=100 the expected overlap is ≈6 members;
	// several must reply within the window.
	if len(res.Values) < 2 {
		t.Fatalf("collected only %d replies, expected several", len(res.Values))
	}
	for _, v := range res.Values {
		if v != "v" {
			t.Fatalf("wrong value collected: %q", v)
		}
	}
}

func TestLookupCollectWalkCoversFullQuorum(t *testing.T) {
	// Even with EarlyHalt configured, a collect walk must not stop at the
	// first hit: it keeps walking and multiple owners reply.
	w := newWorld(51, 100, Config{
		AdvertiseStrategy: UniquePath, LookupStrategy: UniquePath,
		AdvertiseSize: 50, LookupSize: 25,
		EarlyHalt: true, Salvation: true, LookupTimeout: 20,
	})
	w.advertise(0, "k", "v")
	var res CollectResult
	finished := false
	w.e.Schedule(0, func() {
		w.sys.LookupCollect(99, "k", 5, func(r CollectResult) { res = r; finished = true })
	})
	w.e.Run(w.e.Now() + 30)
	if !finished || !res.Intersected {
		t.Fatalf("collect walk failed: %+v", res)
	}
	if len(res.Values) < 2 {
		t.Fatalf("early halting suppressed collect replies: got %d", len(res.Values))
	}
}

func TestLookupCollectEmptyOnAbsentKey(t *testing.T) {
	w := newWorld(52, 60, Config{
		AdvertiseStrategy: Random, LookupStrategy: UniquePath,
		AdvertiseSize: 15, LookupSize: 10, Salvation: true, LookupTimeout: 10,
	})
	var res CollectResult
	finished := false
	w.e.Schedule(0, func() {
		w.sys.LookupCollect(5, "absent", 3, func(r CollectResult) { res = r; finished = true })
	})
	w.e.Run(w.e.Now() + 10)
	if !finished {
		t.Fatal("collect never finished")
	}
	if res.Intersected || len(res.Values) != 0 {
		t.Fatalf("absent key collected %+v", res)
	}
}

func TestMergeHookArbitratesStores(t *testing.T) {
	// A Merge that always keeps the lexicographically larger value must
	// prevent a smaller advertise from overwriting a larger one.
	w := newWorld(53, 80, Config{
		AdvertiseStrategy: Flooding, LookupStrategy: UniquePath,
		AdvertiseTTL: 10, LookupSize: 10, Salvation: true, EarlyHalt: true,
		LookupTimeout: 10,
		Merge: func(_, old, new string) string {
			if old > new {
				return old
			}
			return new
		},
	})
	w.advertise(0, "k", "bbb")
	w.advertise(1, "k", "aaa") // must lose everywhere both floods reached
	for id := 0; id < 80; id++ {
		if v, ok := w.sys.Store(id).Get("k"); ok && v == "aaa" {
			// only acceptable if this node never saw "bbb": flood TTL 10
			// reaches everyone on this connected network, so fail.
			t.Fatalf("node %d regressed to the smaller value", id)
		}
	}
}

func TestRandomOptAdvertiseStoresAtTransitNodes(t *testing.T) {
	w := newWorld(54, 120, Config{
		AdvertiseStrategy: RandomOpt, LookupStrategy: RandomOpt,
		AdvertiseSize: 10, RandomOptTargets: 4, LookupTimeout: 15,
	})
	res := w.advertise(0, "k", "v")
	owners := 0
	for id := 0; id < 120; id++ {
		if w.sys.Store(id).Owner("k") {
			owners++
		}
	}
	// Cross-layer storing at relays makes the effective quorum larger
	// than the explicitly addressed member count.
	if owners <= res.Requested {
		t.Fatalf("RANDOM-OPT advertise reached only %d owners (requested %d); transit storing inactive",
			owners, res.Requested)
	}
}
