package quorum

import (
	"testing"

	"probquorum/internal/aodv"
	"probquorum/internal/membership"
	"probquorum/internal/netstack"
	"probquorum/internal/sim"
)

// randomAccessAllocs returns what one RANDOM lookup of an absent key and one
// RANDOM advertise cost the host, issue to settle, with quorums of size q on
// a static 200-node ideal stack with oracle neighbours and the oracle router.
// Both rotate their origin, and a warm-up of 200 of each fills the route
// cache and the pools first.
func randomAccessAllocs(q int) (lookup, advertise float64) {
	const n = 200
	e := sim.NewEngine(5)
	net := netstack.New(e, netstack.Config{N: n, AvgDegree: 12, Stack: netstack.StackIdeal, Neighbors: netstack.NeighborsOracle})
	members := membership.New(net, membership.Config{RefreshSecs: 1e6})
	sys := New(net, aodv.NewOracle(net), members, Config{
		AdvertiseStrategy: Random, LookupStrategy: Random,
		AdvertiseSize: q, LookupSize: q, LookupTimeout: 1,
	})
	origin := 0
	lk := func() {
		origin = (origin + 1) % n
		sys.Lookup(origin, "absent", nil)
		e.Run(e.Now() + 2)
	}
	ad := func() {
		origin = (origin + 1) % n
		sys.Advertise(origin, "k", "v", nil)
		e.Run(e.Now() + 2)
	}
	for i := 0; i < 200; i++ {
		lk()
		ad()
	}
	return testing.AllocsPerRun(50, lk), testing.AllocsPerRun(50, ad)
}

// TestRandomAccessAllocsIndependentOfQuorum pins the one-message fan-out: a
// RANDOM access builds one message and binds its callbacks once, and the
// oracle router neither copies a delivered packet nor wraps a completion per
// send, so four times the members cost what a quarter of them does. Nobody
// holds the looked-up key, so no member replies. Each costs exactly 1
// object at both sizes, the shared message: the op's record, timer and
// send-dones come from the System's free list, and the membership draw lands
// in the record's own members or contacted array.
func TestRandomAccessAllocsIndependentOfQuorum(t *testing.T) {
	l8, a8 := randomAccessAllocs(8)
	l32, a32 := randomAccessAllocs(32)
	for _, c := range []struct {
		what   string
		q      int
		allocs float64
	}{{"lookup", 8, l8}, {"lookup", 32, l32}, {"advertise", 8, a8}, {"advertise", 32, a32}} {
		if c.allocs != 1 {
			t.Errorf("a RANDOM %s at |Q|=%d costs %.1f objects, want 1 (the shared message)", c.what, c.q, c.allocs)
		}
	}
}
