package quorum

import (
	"testing"

	"probquorum/internal/geom"
	"probquorum/internal/netstack"
	"probquorum/internal/sim"
)

// walkLine is a five-node line (150 m apart, so each node hears only its
// immediate neighbors) running UNIQUE-PATH both ways.
func walkLine(seed int64, cfg Config) *world {
	pts := make([]geom.Point, 5)
	for i := range pts {
		pts[i] = geom.Point{X: float64(i) * 150}
	}
	cfg.AdvertiseStrategy, cfg.LookupStrategy = UniquePath, UniquePath
	return lineWorld(seed, pts, cfg)
}

// seenWalk is what the delivery observer recorded of one walk message at
// the moment it was on the air: its Visited slice header (the backing array
// outlives the message), a copy of the list, and the unique count. The
// message itself belongs to its send and is reused once that settles, so a
// test keeps these, never the *walkMsg.
type seenWalk struct {
	visited, was []int
	unique       int
}

// sentWalks collects, in delivery order, the walk messages node src puts on
// the air.
func sentWalks(w *world, src int) *[]seenWalk {
	var sent []seenWalk
	w.net.SetDeliveryObserver(func(_, _ int, pkt *netstack.Packet) {
		if m, ok := pkt.Payload.(*walkMsg); ok && pkt.Src == src {
			sent = append(sent, seenWalk{m.Visited, append([]int(nil), m.Visited...), m.Unique})
		}
	})
	return &sent
}

// TestWalkSecondDeliveryForks delivers one walk message twice at the same
// node — what a Duplicate fault or a MAC retransmission does — and checks
// the fork-on-second-delivery rule: both continuations extend the original
// list by the receiver, the first in place, the second in an array of its
// own, and the original list is never rewritten.
func TestWalkSecondDeliveryForks(t *testing.T) {
	w := walkLine(1, Config{AdvertiseSize: 5, LookupSize: 5, LookupTimeout: 5})
	sent := sentWalks(w, 2)

	visited := append(make([]int, 0, 8), 0, 1) // room to extend in place
	m := &walkMsg{
		walkHeader: &walkHeader{Op: w.sys.nextOp(0), Key: "k", Target: 5, SelfAvoiding: true},
		Visited:    visited, Unique: 2,
	}
	w.e.Schedule(0, func() {
		w.sys.handleWalk(w.net.Node(2), m)
		w.sys.handleWalk(w.net.Node(2), m)
	})
	w.e.Run(1)

	if len(*sent) != 2 {
		t.Fatalf("node 2 forwarded %d walk messages, want 2", len(*sent))
	}
	a, b := (*sent)[0], (*sent)[1]
	for i, c := range []seenWalk{a, b} {
		if len(c.was) != 3 || c.was[0] != 0 || c.was[1] != 1 || c.was[2] != 2 {
			t.Fatalf("continuation %d visited %v, want [0 1 2]", i, c.was)
		}
		for k := range c.was {
			if c.visited[k] != c.was[k] {
				t.Fatalf("continuation %d list rewritten after it was sent: %v, was %v", i, c.visited, c.was)
			}
		}
		if c.unique != 3 {
			t.Fatalf("continuation %d unique = %d, want 3", i, c.unique)
		}
	}
	if &a.visited[0] != &visited[0] {
		t.Error("first delivery copied the visited list instead of extending it in place")
	}
	if &b.visited[0] == &a.visited[0] {
		t.Fatal("second delivery shares the first one's backing array: the two walks would overwrite each other's next slot")
	}
	if len(m.Visited) != 2 || m.Visited[0] != 0 || m.Visited[1] != 1 {
		t.Fatalf("original message rewritten: %v", m.Visited)
	}
	// Both walks went on to node 3 (the only unvisited neighbor) and
	// extended their own lists; neither may show through in the other.
	if a.visited[:4][3] != 3 || b.visited[:cap(b.visited)][3] != 3 {
		t.Fatalf("continuations did not both reach node 3: %v / %v", a.visited[:4], b.visited[:cap(b.visited)][:4])
	}
}

// TestReplyPathSurvivesWalkMovingOn pins the alias in sendWalkReply: a
// collect-mode (NoHalt) walk replies from every holder and keeps walking,
// appending to the very array the replies' Path points into. Each reply's
// Path is recorded on the air — its slice header and a copy — and read back
// after the run.
func TestReplyPathSurvivesWalkMovingOn(t *testing.T) {
	w := walkLine(2, Config{AdvertiseSize: 5, LookupSize: 5, LookupTimeout: 5, EarlyHalt: true, ReplyPathReduction: true})
	for id := 1; id < 5; id++ {
		w.sys.Store(id).Put("k", "v", true)
	}
	type seen struct {
		path, was []int
	}
	var replies []seen
	w.net.SetDeliveryObserver(func(_, _ int, pkt *netstack.Packet) {
		if r, ok := pkt.Payload.(*replyMsg); ok {
			replies = append(replies, seen{r.Path, append([]int(nil), r.Path...)})
		}
	})
	var res CollectResult
	w.e.Schedule(0, func() { w.sys.LookupCollect(0, "k", 2, func(r CollectResult) { res = r }) })
	w.e.Run(10)

	if len(res.Values) != 4 {
		t.Fatalf("collected %d replies, want one from each of the 4 holders", len(res.Values))
	}
	if len(replies) == 0 {
		t.Fatal("no reply observed on the air")
	}
	for _, s := range replies {
		if len(s.path) != len(s.was) {
			t.Fatalf("reply path changed length: %v, was %v", s.path, s.was)
		}
		for i := range s.was {
			if s.path[i] != s.was[i] || s.was[i] != i {
				t.Fatalf("reply path rewritten after the walk moved on: %v, was %v", s.path, s.was)
			}
		}
	}
}

// walkHopWorld is a static 200-node ideal-stack world with nothing but the
// quorum layer on it (no routing or membership tickers) and empty stores,
// so lookup walks never halt: the place to count what one hop allocates.
func walkHopWorld() *world {
	e := sim.NewEngine(7)
	net := netstack.New(e, netstack.Config{N: 200, AvgDegree: 12, Stack: netstack.StackIdeal})
	sys := New(net, nil, nil, Config{
		AdvertiseStrategy: UniquePath, LookupStrategy: UniquePath,
		AdvertiseSize: 10, LookupSize: 40, Salvation: true, ReplyPathReduction: true,
	})
	return &world{e: e, net: net, sys: sys}
}

// TestWalkHopAllocsBounded pins one walk hop — handleWalk → SendOneHop →
// ideal deliver → MACSendDone — at zero objects: the message and its
// completion come from the System's free list, and there is no map, no
// per-step copy of the list, no per-hop packet, frame, event, flight or
// candidate pool. What a walk allocates is its start and the visited list's
// amortized growth.
func TestWalkHopAllocsBounded(t *testing.T) {
	w := walkHopWorld()
	walk := func() {
		w.sys.startWalk(0, walkHeader{Op: w.sys.nextOp(0), Key: "absent", Target: 33, SelfAvoiding: true})
		w.e.Run(w.e.Now() + 1)
	}
	w.net.PrepareNeighbors() // a static network computes each list once
	for i := 0; i < 8; i++ {
		walk() // warm the event, flight, envelope, message and candidate pools
	}
	sent := w.net.Stats().Get(netstack.CtrAppMsgs)
	perWalk := testing.AllocsPerRun(50, walk)
	// AllocsPerRun makes one extra warm-up call. A self-avoiding walk that
	// corners itself revisits, so a walk takes a few hops more than it
	// covers nodes.
	hops := float64(w.net.Stats().Get(netstack.CtrAppMsgs)-sent) / 51
	// Per walk: the walkStart (header and the first 8 visited slots) and the
	// list's growths 8→16→32→64 (4); per hop: nothing.
	if perHop := (perWalk - 4) / hops; hops < 32 || perHop > 0.05 {
		t.Fatalf("a walk hop allocates %.2f objects in steady state (%.0f per %.1f-hop walk), want 0", perHop, perWalk, hops)
	}
}

// TestReplyHopAllocsBounded pins one reply hop at zero objects: the hop and
// its completion come from the System's free list.
func TestReplyHopAllocsBounded(t *testing.T) {
	pts := make([]geom.Point, 40)
	for i := range pts {
		pts[i] = geom.Point{X: float64(i) * 150}
	}
	w := lineWorld(3, pts, Config{
		AdvertiseStrategy: Random, LookupStrategy: UniquePath,
		AdvertiseSize: 2, LookupSize: 2, LookupTimeout: 1e6, ReplyPathReduction: true,
	})
	path := make([]int, len(pts))
	for i := range path {
		path[i] = i
	}
	r := &replyMsg{Op: w.sys.nextOp(0), Key: "k", Value: "v", Path: path}
	reply := func() {
		w.sys.forwardReply(w.net.Node(len(pts)-1), r, len(pts)-1)
		w.e.Run(w.e.Now() + 1)
	}
	for i := 0; i < 8; i++ {
		reply()
	}
	hops := float64(len(pts) - 1)
	if perHop := testing.AllocsPerRun(50, reply) / hops; perHop > 0.05 {
		t.Fatalf("a reply hop allocates %.2f objects in steady state, want 0", perHop)
	}
}

// TestPickWalkNextAllocFree pins the self-avoiding choice at zero
// allocations: the visited set is the System's stamp array, not a map.
func TestPickWalkNextAllocFree(t *testing.T) {
	w := walkHopWorld()
	m := &walkMsg{walkHeader: &walkHeader{SelfAvoiding: true}}
	for v := 0; v < 60; v++ {
		m.Visited = append(m.Visited, v)
	}
	pool := []int{3, 70, 59, 120, 5, 199, 61}
	var got int
	if avg := testing.AllocsPerRun(200, func() { got = w.sys.pickWalkNext(m, pool) }); avg != 0 {
		t.Fatalf("pickWalkNext allocates %.1f objects per call, want 0", avg)
	}
	if c := pool[got]; c < 60 {
		t.Fatalf("picked visited candidate %d although unvisited ones exist", c)
	}
	// All visited: any candidate may be drawn (Section 4.3's fallback).
	if i := w.sys.pickWalkNext(m, []int{1, 2, 3}); i < 0 || i > 2 {
		t.Fatalf("fallback index %d out of range", i)
	}
}

// TestPickWalkNextMatchesMapReference replays the replaced implementation —
// a map of the visited list, the unvisited candidates collected in pool
// order, one Intn over them (or over the pool when none is left) — against
// the stamp-array one on equal random streams.
func TestPickWalkNextMatchesMapReference(t *testing.T) {
	w := walkHopWorld()
	ref := walkHopWorld()
	gen := w.e.NewStream()
	ref.e.NewStream() // keep the two engines' main streams aligned
	for trial := 0; trial < 2000; trial++ {
		m := &walkMsg{walkHeader: &walkHeader{SelfAvoiding: trial%7 != 0}}
		for i, k := 0, gen.Intn(80); i < k; i++ {
			m.Visited = append(m.Visited, gen.Intn(200))
		}
		pool := make([]int, 1+gen.Intn(15))
		for i := range pool {
			pool[i] = gen.Intn(200)
		}
		want := func() int {
			rng := ref.e.Rand()
			if !m.SelfAvoiding {
				return rng.Intn(len(pool))
			}
			visited := make(map[int]bool)
			for _, v := range m.Visited {
				visited[v] = true
			}
			var fresh []int
			for i, c := range pool {
				if !visited[c] {
					fresh = append(fresh, i)
				}
			}
			if len(fresh) == 0 {
				return rng.Intn(len(pool))
			}
			return fresh[rng.Intn(len(fresh))]
		}()
		if got := w.sys.pickWalkNext(m, pool); got != want {
			t.Fatalf("trial %d: picked index %d, map reference %d (visited %v, pool %v)", trial, got, want, m.Visited, pool)
		}
	}
}
