package netstack

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"probquorum/internal/geom"
	"probquorum/internal/mobility"
	"probquorum/internal/sim"
)

const testProto ProtocolID = 40

// sink records delivered packets — as copies: a one-hop packet is only valid
// for the upcall.
type sink struct {
	pkts []*Packet
	from []int
}

func (s *sink) HandlePacket(_ *Node, pkt *Packet, from int) {
	s.pkts = append(s.pkts, pkt.Clone())
	s.from = append(s.from, from)
}

// lineNetwork builds nodes spaced `gap` meters apart on a line.
func lineNetwork(e *sim.Engine, n int, gap float64, stack StackKind) *Network {
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Point{X: float64(i) * gap, Y: 0}
	}
	return New(e, Config{
		N: n, Side: float64(n) * gap, Mobility: mobility.NewStatic(pts),
		Stack: stack, Neighbors: NeighborsOracle,
	})
}

func TestOneHopUnicast(t *testing.T) {
	for _, stack := range []StackKind{StackSINR, StackIdeal} {
		e := sim.NewEngine(1)
		net := lineNetwork(e, 3, 150, stack)
		s := &sink{}
		net.Node(1).Register(testProto, s)
		var result *bool
		e.Schedule(0, func() {
			net.Node(0).SendOneHop(1, &Packet{Proto: testProto, Src: 0, Dst: 1, Bytes: 512, Payload: "v"}, func(ok bool) {
				result = &ok
			})
		})
		e.Run(2)
		if len(s.pkts) != 1 || s.pkts[0].Payload != "v" {
			t.Fatalf("stack %d: delivered %d packets", stack, len(s.pkts))
		}
		if s.from[0] != 0 {
			t.Fatalf("stack %d: from = %d, want 0", stack, s.from[0])
		}
		if result == nil || !*result {
			t.Fatalf("stack %d: send callback not ok", stack)
		}
	}
}

func TestOneHopFailureNotification(t *testing.T) {
	for _, stack := range []StackKind{StackSINR, StackIdeal} {
		e := sim.NewEngine(1)
		net := lineNetwork(e, 2, 2000, stack) // out of range
		var result *bool
		e.Schedule(0, func() {
			net.Node(0).SendOneHop(1, &Packet{Proto: testProto, Src: 0, Dst: 1, Bytes: 512}, func(ok bool) {
				result = &ok
			})
		})
		e.Run(5)
		if result == nil || *result {
			t.Fatalf("stack %d: expected failure notification", stack)
		}
	}
}

func TestBroadcastOneHop(t *testing.T) {
	e := sim.NewEngine(1)
	net := lineNetwork(e, 4, 150, StackIdeal)
	sinks := make([]*sink, 4)
	for i := range sinks {
		sinks[i] = &sink{}
		net.Node(i).Register(testProto, sinks[i])
	}
	e.Schedule(0, func() {
		net.Node(1).BroadcastOneHop(&Packet{Proto: testProto, Src: 1, Dst: Broadcast, Bytes: 512})
	})
	e.Run(2)
	// Nodes 0 and 2 are within 150 m; node 3 is 300 m away.
	if len(sinks[0].pkts) != 1 || len(sinks[2].pkts) != 1 {
		t.Fatal("adjacent nodes missed the broadcast")
	}
	if len(sinks[3].pkts) != 0 {
		t.Fatal("distant node received the broadcast")
	}
}

func TestMessageCounting(t *testing.T) {
	e := sim.NewEngine(1)
	net := lineNetwork(e, 2, 150, StackIdeal)
	e.Schedule(0, func() {
		net.Node(0).SendOneHop(1, &Packet{Proto: ProtoQuorum, Src: 0, Dst: 1, Bytes: 512}, nil)
		net.Node(0).SendOneHop(1, &Packet{Proto: ProtoAODV, Src: 0, Dst: 1, Bytes: 64}, nil)
	})
	e.Run(2)
	if got := net.Stats().Get(CtrAppMsgs); got != 1 {
		t.Fatalf("app msgs = %d, want 1", got)
	}
	if got := net.Stats().Get(CtrRoutingMsgs); got != 1 {
		t.Fatalf("routing msgs = %d, want 1", got)
	}
}

func TestStatsSnapshotDiff(t *testing.T) {
	s := NewStats()
	s.Inc(CtrAppMsgs, 5)
	s.Observe(LatHop, 0.5)
	snap := s.Snapshot()
	s.Inc(CtrAppMsgs, 2)
	s.Inc(CtrRoutingMsgs, 1)
	s.Observe(LatHop, 0.1)
	s.Observe(LatHop, 0.3)
	d := s.DiffSince(snap)
	if d.Get(CtrAppMsgs) != 2 || d.Get(CtrRoutingMsgs) != 1 {
		t.Fatalf("diff = %+v", d)
	}
	if got := d.LatencyMean(LatHop); got < 0.19 || got > 0.21 {
		t.Fatalf("interval latency mean = %v, want 0.2", got)
	}
	if acc := s.Latency(LatHop); acc.Count != 3 || acc.Min != 0.1 || acc.Max != 0.5 {
		t.Fatalf("accumulator = %+v", acc)
	}
}

func TestStatsSnapshotAllocFree(t *testing.T) {
	s := NewStats()
	s.Inc(CtrAppMsgs, 3)
	s.Observe(LatHop, 0.2)
	allocs := testing.AllocsPerRun(100, func() {
		snap := s.Snapshot()
		_ = s.DiffSince(snap)
	})
	if allocs != 0 {
		t.Fatalf("Snapshot+DiffSince allocated %v times per run, want 0", allocs)
	}
}

func TestHopLatencyObserved(t *testing.T) {
	e := sim.NewEngine(1)
	net := lineNetwork(e, 2, 150, StackIdeal)
	e.Schedule(0, func() {
		net.Node(0).SendOneHop(1, &Packet{Proto: ProtoQuorum, Src: 0, Dst: 1, Bytes: 512}, nil)
	})
	e.Run(2)
	acc := net.Stats().Latency(LatHop)
	if acc.Count != 1 || acc.Mean() <= 0 {
		t.Fatalf("hop latency not observed: %+v", acc)
	}
}

// TestSendOneHopAllocFree pins one acknowledged unicast — SendOneHop → ideal
// MAC → delivery → MACSendDone with a completion callback — at zero
// allocations in steady state: the in-flight state rides on the pooled
// envelope, not in a per-node map.
func TestSendOneHopAllocFree(t *testing.T) {
	e := sim.NewEngine(1)
	net := lineNetwork(e, 2, 150, StackIdeal)
	pkt := &Packet{Proto: testProto, Src: 0, Dst: 1, Bytes: 512}
	acked := 0
	done := func(ok bool) {
		if ok {
			acked++
		}
	}
	hop := func() {
		net.Node(0).SendOneHop(1, pkt, done)
		e.Run(e.Now() + 1)
	}
	for i := 0; i < 8; i++ {
		hop() // warm the envelope, flight and event pools
	}
	if avg := testing.AllocsPerRun(100, hop); avg != 0 {
		t.Fatalf("SendOneHop allocates %.1f objects per hop in steady state, want 0", avg)
	}
	if acked != 8+101 {
		t.Fatalf("%d of %d hops acknowledged", acked, 8+101)
	}
	if got := net.Stats().Latency(LatHop).Count; got != 8+101 {
		t.Fatalf("LatHop observed %d times, want one per hop (%d)", got, 8+101)
	}
}

func TestOracleNeighbors(t *testing.T) {
	e := sim.NewEngine(1)
	net := lineNetwork(e, 5, 150, StackIdeal)
	nbs := net.Neighbors(2)
	want := map[int]bool{1: true, 3: true}
	if len(nbs) != 2 || !want[nbs[0]] || !want[nbs[1]] {
		t.Fatalf("neighbors of 2 = %v, want {1,3}", nbs)
	}
	net.Fail(1)
	nbs = net.Neighbors(2)
	if len(nbs) != 1 || nbs[0] != 3 {
		t.Fatalf("after failing 1, neighbors of 2 = %v", nbs)
	}
}

// TestOracleNeighborsFlipRelistsLocally: on a static network a liveness flip
// invalidates only the lists around the flipped node, and what the provider
// then serves — Neighbors for every node, dead ones too, and the frozen lists
// after Prepare — is what a provider built from scratch computes. Flips land
// on a warm cache, so a list wrongly kept valid shows.
func TestOracleNeighborsFlipRelistsLocally(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	const n, side = 300, 1500.0
	e := sim.NewEngine(1)
	net := New(e, Config{
		N: n, Side: side, Mobility: mobility.NewStatic(geom.UniformPoints(rng, n, side)),
		Stack: StackIdeal, Neighbors: NeighborsOracle,
	})
	o := net.geo
	net.PrepareNeighbors()
	relisted := 0
	for flip := 0; flip < 200; flip++ {
		id := rng.Intn(n)
		before := net.NeighborVersion()
		if net.Alive(id) {
			net.Fail(id)
		} else {
			net.Revive(id)
		}
		if net.NeighborVersion() == before {
			t.Fatalf("flip %d: version did not advance", flip)
		}
		for _, ok := range o.valid {
			if !ok {
				relisted++
			}
		}
		if flip%3 == 0 {
			continue // the next flip lands on the lists this one left stale
		}
		net.PrepareNeighbors()
		fresh := newOracleNeighbors(net)
		for v := 0; v < n; v++ {
			want := fresh.Neighbors(v)
			if got := net.FrozenNeighbors(v); net.Alive(v) && !slices.Equal(got, want) {
				t.Fatalf("flip %d (node %d): frozen list of %d = %v, a fresh provider lists %v", flip, id, v, got, want)
			}
			if got := net.Neighbors(v); !slices.Equal(got, want) {
				t.Fatalf("flip %d (node %d): neighbors of %d = %v, a fresh provider lists %v", flip, id, v, got, want)
			}
		}
	}
	if relisted >= 200*n/4 {
		t.Fatalf("%d lists invalidated by 200 flips of %d nodes: not local", relisted, n)
	}
}

func TestHeartbeatNeighbors(t *testing.T) {
	e := sim.NewEngine(1)
	pts := []geom.Point{{X: 0, Y: 0}, {X: 150, Y: 0}, {X: 300, Y: 0}}
	net := New(e, Config{
		N: 3, Side: 500, Mobility: mobility.NewStatic(pts),
		Stack: StackIdeal, Neighbors: NeighborsHeartbeat,
	})
	e.Run(25) // a couple of beacon cycles
	nbs := net.Neighbors(1)
	if len(nbs) != 2 || nbs[0] != 0 || nbs[1] != 2 {
		t.Fatalf("heartbeat neighbors of 1 = %v, want [0 2]", nbs)
	}
	if net.Stats().Get(CtrBeaconMsgs) == 0 {
		t.Fatal("no beacons counted")
	}
	// A failed node's beacons stop and its entry expires.
	net.Fail(0)
	e.Run(60)
	nbs = net.Neighbors(1)
	if len(nbs) != 1 || nbs[0] != 2 {
		t.Fatalf("after failure, neighbors of 1 = %v, want [2]", nbs)
	}
}

func TestHeartbeatTracksMobility(t *testing.T) {
	e := sim.NewEngine(3)
	rng := rand.New(rand.NewSource(11))
	mob := mobility.NewWaypoint(rng, 20, mobility.WaypointConfig{
		MinSpeed: 1, MaxSpeed: 5, Pause: 5, Side: 600,
	}, nil)
	net := New(e, Config{
		N: 20, Side: 600, Mobility: mob,
		Stack: StackIdeal, Neighbors: NeighborsHeartbeat,
	})
	e.Run(100)
	// Heartbeat view should roughly agree with geometry: every claimed
	// neighbor was within range in the recent past.
	for id := 0; id < 20; id++ {
		for _, nb := range net.Neighbors(id) {
			d := geom.Dist(net.Position(id), net.Position(nb))
			// allow staleness slack: timeout × 2 × maxspeed
			if d > net.Range()+2*22*5 {
				t.Fatalf("claimed neighbor %d of %d is %v m away", nb, id, d)
			}
		}
	}
}

func TestFailReviveChurn(t *testing.T) {
	e := sim.NewEngine(1)
	net := lineNetwork(e, 4, 150, StackIdeal)
	if net.NumAlive() != 4 {
		t.Fatalf("NumAlive = %d", net.NumAlive())
	}
	net.Fail(2)
	net.Fail(2) // idempotent
	if net.NumAlive() != 3 || net.Alive(2) {
		t.Fatal("Fail not applied")
	}
	ids := net.AliveIDs()
	if len(ids) != 3 {
		t.Fatalf("AliveIDs = %v", ids)
	}
	// A dead node neither sends nor receives.
	s := &sink{}
	net.Node(2).Register(testProto, s)
	var cbOK *bool
	e.Schedule(0, func() {
		net.Node(1).SendOneHop(2, &Packet{Proto: testProto, Src: 1, Dst: 2, Bytes: 512}, nil)
		net.Node(2).SendOneHop(1, &Packet{Proto: testProto, Src: 2, Dst: 1, Bytes: 512}, func(ok bool) { cbOK = &ok })
	})
	e.Run(2)
	if len(s.pkts) != 0 {
		t.Fatal("dead node received a packet")
	}
	if cbOK == nil || *cbOK {
		t.Fatal("send from dead node should fail immediately")
	}
	net.Revive(2)
	net.Revive(2) // idempotent
	if net.NumAlive() != 4 || !net.Alive(2) {
		t.Fatal("Revive not applied")
	}
	e.Schedule(0, func() {
		net.Node(1).SendOneHop(2, &Packet{Proto: testProto, Src: 1, Dst: 2, Bytes: 512}, nil)
	})
	e.Run(4)
	if len(s.pkts) != 1 {
		t.Fatal("revived node did not receive")
	}
}

func TestRandomAliveID(t *testing.T) {
	e := sim.NewEngine(1)
	net := lineNetwork(e, 10, 100, StackIdeal)
	for id := 0; id < 9; id++ {
		net.Fail(id)
	}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 20; i++ {
		if got := net.RandomAliveID(rng); got != 9 {
			t.Fatalf("RandomAliveID = %d, want 9", got)
		}
	}
}

func TestOverhearTap(t *testing.T) {
	e := sim.NewEngine(1)
	net := lineNetwork(e, 3, 100, StackIdeal)
	var overheard []*Packet
	net.Node(2).AddOverhearTap(func(_ *Node, pkt *Packet, _ int) {
		overheard = append(overheard, pkt)
	})
	e.Schedule(0, func() {
		net.Node(0).SendOneHop(1, &Packet{Proto: testProto, Src: 0, Dst: 1, Bytes: 512}, nil)
	})
	e.Run(2)
	if len(overheard) != 1 {
		t.Fatalf("overheard %d packets, want 1", len(overheard))
	}
}

func TestDuplicateProtoRegistrationPanics(t *testing.T) {
	e := sim.NewEngine(1)
	net := lineNetwork(e, 2, 100, StackIdeal)
	net.Node(0).Register(testProto, &sink{})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on duplicate registration")
		}
	}()
	net.Node(0).Register(testProto, &sink{})
}

func TestDefaultsDeriveSide(t *testing.T) {
	e := sim.NewEngine(1)
	net := New(e, Config{N: 100, Stack: StackIdeal})
	side := net.Config().Side
	want := geom.AreaSide(100, 200, 10)
	if side != want {
		t.Fatalf("derived side %v, want %v", side, want)
	}
	if net.Range() != 200 {
		t.Fatalf("Range = %v", net.Range())
	}
}

func TestPacketClone(t *testing.T) {
	p := &Packet{Proto: 1, Src: 2, Dst: 3, TTL: 4, Bytes: 5, Hops: 6, Payload: "x"}
	c := p.Clone()
	c.Hops++
	if p.Hops != 6 || c.Hops != 7 {
		t.Fatal("Clone aliases the original")
	}
}

// TestParseStack: every kind round-trips through its name in any case, and
// an unknown name is an error that lists the valid ones.
func TestParseStack(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want StackKind
	}{
		{"sinr", StackSINR}, {"ideal", StackIdeal},
		{"SINR", StackSINR}, {"Ideal", StackIdeal}, {"disk", 0},
		{"", 0}, {"sinr ", 0}, {"unitdisk", 0}, {"StackKind(0)", 0},
	} {
		got, err := ParseStack(tc.in)
		if got != tc.want || (err == nil) != (tc.want != 0) {
			t.Errorf("ParseStack(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
		if err != nil && !strings.Contains(err.Error(), "sinr or ideal") {
			t.Errorf("ParseStack(%q) error %q does not list the valid names", tc.in, err)
		}
		if err == nil && got.String() != strings.ToLower(tc.in) {
			t.Errorf("%v.String() = %q, want %q", tc.want, got.String(), strings.ToLower(tc.in))
		}
	}
	if s := StackKind(9).String(); s != "StackKind(9)" {
		t.Errorf("out-of-range kind prints %q", s)
	}
}
