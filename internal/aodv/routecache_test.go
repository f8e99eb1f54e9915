package aodv

import (
	"fmt"
	"math/rand"
	"testing"

	"probquorum/internal/geom"
	"probquorum/internal/mobility"
	"probquorum/internal/netstack"
	"probquorum/internal/sim"
)

// oracleWorld builds a static topology with an Oracle router on the ideal
// stack, optionally with the route cache enabled.
func oracleWorld(pts []geom.Point, side float64, cached bool) (*sim.Engine, *netstack.Network, *Oracle) {
	e := sim.NewEngine(1)
	net := netstack.New(e, netstack.Config{
		N: len(pts), Side: side, Mobility: mobility.NewStatic(pts), Stack: netstack.StackIdeal,
	})
	o := NewOracle(net)
	if cached {
		o.EnableRouteCache(RouteCacheConfig{})
	}
	return e, net, o
}

// TestRouteCacheScopedMatchesBFS compares the cached scoped next-hop answers
// against the exact bounded BFS on a random static topology: for every
// (src, dst, ttl) the reachability verdict must agree (tree paths are
// shortest paths, so "within k hops" is the same predicate on both sides),
// and any hop the cache returns must be a strictly-closer live neighbor.
func TestRouteCacheScopedMatchesBFS(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n, side = 40, 900.0
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Point{X: rng.Float64() * side, Y: rng.Float64() * side}
	}
	_, _, plain := oracleWorld(pts, side, false)
	_, _, cached := oracleWorld(pts, side, true)

	for src := 0; src < n; src++ {
		for dst := 0; dst < n; dst++ {
			if src == dst {
				continue
			}
			for ttl := 0; ttl <= 6; ttl++ {
				_, wantOK := plain.nextHop(src, dst, ttl)
				hop, gotOK := cached.nextHop(src, dst, ttl)
				if gotOK != wantOK {
					t.Fatalf("src=%d dst=%d ttl=%d: cached reachable=%v, BFS says %v", src, dst, ttl, gotOK, wantOK)
				}
				if !gotOK {
					continue
				}
				// The cached hop must make strict progress: dst reachable
				// from hop within ttl-1 (unbounded stays unbounded).
				rest := 0
				if ttl > 0 {
					rest = ttl - 1
				}
				if hop != dst {
					if _, ok := plain.nextHop(hop, dst, rest); !ok {
						t.Fatalf("src=%d dst=%d ttl=%d: cached hop %d cannot reach dst within %d", src, dst, ttl, hop, rest)
					}
				}
			}
		}
	}
}

// TestOracleRouteCacheScopedDelivery re-runs the scoped/unreachable oracle
// scenario with the cache enabled: TTL-bounded sends must still fail beyond
// their scope, succeed within it, and unreachable destinations must drop.
func TestOracleRouteCacheScopedDelivery(t *testing.T) {
	pts := []geom.Point{{X: 0, Y: 0}, {X: 150, Y: 0}, {X: 300, Y: 0}, {X: 450, Y: 0}, {X: 5000, Y: 0}}
	e, net, o := oracleWorld(pts, 6000, true)
	s := &sink{}
	net.Node(3).Register(testProto, s)
	var beyond, within, far *bool
	e.Schedule(0, func() {
		o.SendScoped(0, 3, innerPkt(0, 3), 2, func(ok bool) { beyond = &ok }) // 3 hops away
		o.Send(0, 4, innerPkt(0, 4), func(ok bool) { far = &ok })             // disconnected
	})
	e.Schedule(1, func() {
		o.SendScoped(0, 3, innerPkt(0, 3), 3, func(ok bool) { within = &ok }) // exactly in scope
	})
	e.Run(5)
	if beyond == nil || *beyond {
		t.Fatal("scoped send beyond TTL should fail with the cache on")
	}
	if far == nil || *far {
		t.Fatal("send to a disconnected node should fail with the cache on")
	}
	if within == nil || !*within {
		t.Fatal("scoped send within TTL should hand off with the cache on")
	}
	if len(s.pkts) != 1 || s.pkts[0].Hops != 3 {
		t.Fatalf("cached scoped delivery: %d pkts", len(s.pkts))
	}
	if o.DataDrops == 0 {
		t.Fatal("drops not counted")
	}
}

// TestPrefetchTreesMatchSerialMiss pins the sharded build against the serial
// one: every next[] installed by PrefetchRoutes — at widths 0, 2 and 8, and
// with the width grown between two prefetches so the per-shard BFS scratch
// has to grow with it — equals the tree the serial miss path builds for the
// same destination.
func TestPrefetchTreesMatchSerialMiss(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const n, side = 60, 1000.0
	pts := make([]geom.Point, n)
	dsts := make([]int, 0, n+2)
	for i := range pts {
		pts[i] = geom.Point{X: rng.Float64() * side, Y: rng.Float64() * side}
		dsts = append(dsts, i)
	}
	dsts = append(dsts, 3, 3) // duplicates are built once

	_, _, serial := oracleWorld(pts, side, true)
	for dst := 0; dst < n; dst++ {
		serial.nextHop((dst+1)%n, dst, 0)
	}
	check := func(name string, o *Oracle) {
		t.Helper()
		if len(o.cache.trees) != n {
			t.Fatalf("%s: %d trees installed, want %d", name, len(o.cache.trees), n)
		}
		for dst := 0; dst < n; dst++ {
			got, want := o.cache.trees[dst].next, serial.cache.trees[dst].next
			for v := range want {
				if got[v] != want[v] {
					t.Fatalf("%s: tree %d next[%d] = %d, serial miss path built %d", name, dst, v, got[v], want[v])
				}
			}
		}
	}
	for _, w := range []int{0, 2, 8} {
		e, _, o := oracleWorld(pts, side, true)
		e.SetShards(w)
		o.PrefetchRoutes(0, dsts)
		e.StopWorkers()
		check(fmt.Sprintf("shards=%d", w), o)
	}

	e, _, o := oracleWorld(pts, side, true)
	defer e.StopWorkers()
	e.SetShards(2)
	o.PrefetchRoutes(0, dsts[:n/2])
	e.SetShards(8)
	o.PrefetchRoutes(0, dsts)
	if got := len(o.cache.visited); got != 8 {
		t.Fatalf("BFS scratch has %d slots after growing the width to 8", got)
	}
	check("shards 2→8", o)
}
