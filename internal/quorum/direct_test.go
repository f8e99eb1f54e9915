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
// send, so four times the members cost what a quarter of them does, within
// one object. Nobody holds the looked-up key, so no member replies.
func TestRandomAccessAllocsIndependentOfQuorum(t *testing.T) {
	l8, a8 := randomAccessAllocs(8)
	l32, a32 := randomAccessAllocs(32)
	if d := l32 - l8; d > 1 || d < -1 {
		t.Errorf("a RANDOM lookup costs %.1f objects at |Q|=8 and %.1f at |Q|=32: something is allocated per member", l8, l32)
	}
	if d := a32 - a8; d > 1 || d < -1 {
		t.Errorf("a RANDOM advertise costs %.1f objects at |Q|=8 and %.1f at |Q|=32: something is allocated per member", a8, a32)
	}
}
