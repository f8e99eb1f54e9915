package faults_test

import (
	"math/rand"
	"reflect"
	"testing"

	"probquorum/internal/faults"
	"probquorum/internal/geom"
	"probquorum/internal/mobility"
	"probquorum/internal/netstack"
	"probquorum/internal/sim"
)

const testProto netstack.ProtocolID = 41

type sink struct{ pkts []*netstack.Packet }

func (s *sink) HandlePacket(_ *netstack.Node, pkt *netstack.Packet, _ int) {
	s.pkts = append(s.pkts, pkt.Clone()) // valid for the upcall only
}

// lineNet builds an ideal-stack line network with nodes 150 m apart.
func lineNet(e *sim.Engine, n int) *netstack.Network {
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Point{X: float64(i) * 150, Y: 0}
	}
	return netstack.New(e, netstack.Config{
		N: n, Side: float64(n) * 150, Mobility: mobility.NewStatic(pts),
		Stack: netstack.StackIdeal, Neighbors: netstack.NeighborsOracle,
	})
}

func send(net *netstack.Network, from, to int) {
	net.Node(from).SendOneHop(to, &netstack.Packet{
		Proto: testProto, Src: from, Dst: to, Bytes: 64,
	}, nil)
}

func TestPartitionEpisodeAppliesAndHeals(t *testing.T) {
	e := sim.NewEngine(1)
	net := lineNet(e, 2)
	inj := faults.New(net)
	s := &sink{}
	net.Node(1).Register(testProto, s)

	inj.Schedule([]faults.Episode{{
		Kind: faults.Partition, Start: 1, Duration: 2,
		Groups: [][]int{{0}, {1}},
	}})
	e.Schedule(0.5, func() { send(net, 0, 1) }) // before: delivered
	e.Schedule(2.0, func() { send(net, 0, 1) }) // during: dropped
	e.Schedule(2.5, func() {
		if !inj.Partitioned(0, 1) {
			t.Error("expected nodes 0 and 1 partitioned at t=2.5")
		}
	})
	e.Schedule(4.0, func() { send(net, 0, 1) }) // after heal: delivered
	e.Run(6)

	if len(s.pkts) != 2 {
		t.Fatalf("delivered %d packets, want 2 (pre + post-heal)", len(s.pkts))
	}
	if inj.Partitioned(0, 1) {
		t.Error("partition did not heal")
	}
	if got := net.Stats().Get(netstack.CtrPartitionDrops); got != 1 {
		t.Errorf("partition drops = %d, want 1", got)
	}
}

func TestGeometricPartitionSplitsBySlab(t *testing.T) {
	e := sim.NewEngine(1)
	net := lineNet(e, 4) // x = 0, 150, 300, 450; side = 600
	inj := faults.New(net)
	inj.PartitionGeometric(2) // slabs [0,300) and [300,600)
	if inj.Partitioned(0, 1) {
		t.Error("nodes 0,1 share the left slab; should not be partitioned")
	}
	if !inj.Partitioned(1, 2) {
		t.Error("nodes 1,2 straddle the cut; should be partitioned")
	}
	if inj.Partitioned(2, 3) {
		t.Error("nodes 2,3 share the right slab; should not be partitioned")
	}
}

func TestAsymmetricLossDropsOneDirection(t *testing.T) {
	e := sim.NewEngine(1)
	net := lineNet(e, 2)
	inj := faults.New(net)
	fwd, rev := &sink{}, &sink{}
	net.Node(1).Register(testProto, fwd)
	net.Node(0).Register(testProto, rev)

	inj.Schedule([]faults.Episode{{
		Kind: faults.Loss, Start: 0, Duration: 10,
		Prob: 1.0, Asymmetric: true,
	}})
	e.Schedule(1, func() { send(net, 0, 1); send(net, 1, 0) })
	e.Run(3)

	if len(fwd.pkts) != 0 {
		t.Errorf("0→1 delivered %d packets under total asymmetric loss, want 0", len(fwd.pkts))
	}
	if len(rev.pkts) != 1 {
		t.Errorf("1→0 delivered %d packets, want 1 (reverse direction unaffected)", len(rev.pkts))
	}
	if got := net.Stats().Get(netstack.CtrFaultDrops); got != 1 {
		t.Errorf("fault drops = %d, want 1", got)
	}
}

func TestBlackholeDropsTransitOnly(t *testing.T) {
	e := sim.NewEngine(1)
	net := lineNet(e, 3)
	inj := faults.New(net)
	s := &sink{}
	net.Node(1).Register(testProto, s)

	inj.Schedule([]faults.Episode{{
		Kind: faults.Blackhole, Start: 0, Duration: 10, Nodes: []int{1},
	}})
	e.Schedule(1, func() {
		// Transit frame: addressed past the blackhole relay.
		net.Node(0).SendOneHop(1, &netstack.Packet{
			Proto: testProto, Src: 0, Dst: 2, Bytes: 64,
		}, nil)
		// Local frame: addressed to the blackhole itself.
		send(net, 0, 1)
	})
	e.Run(3)

	if len(s.pkts) != 1 || s.pkts[0].Dst != 1 {
		t.Fatalf("blackhole delivered %d packets, want only the locally-addressed one", len(s.pkts))
	}
}

func TestJamSilencesIdealStack(t *testing.T) {
	e := sim.NewEngine(1)
	net := lineNet(e, 2)
	inj := faults.New(net)
	s := &sink{}
	net.Node(1).Register(testProto, s)

	inj.Schedule([]faults.Episode{{
		Kind: faults.Jam, Start: 1, Duration: 2, Nodes: []int{1},
	}})
	e.Schedule(2, func() { send(net, 0, 1) }) // during jam: dropped
	e.Schedule(4, func() { send(net, 0, 1) }) // after jam: delivered
	e.Run(6)

	if len(s.pkts) != 1 {
		t.Fatalf("delivered %d packets, want 1 (post-jam only)", len(s.pkts))
	}
}

func TestDuplicateAndJitterCounters(t *testing.T) {
	e := sim.NewEngine(1)
	net := lineNet(e, 2)
	inj := faults.New(net)
	s := &sink{}
	net.Node(1).Register(testProto, s)

	inj.Schedule([]faults.Episode{{
		Kind: faults.Duplicate, Start: 0, Duration: 10, Prob: 1.0,
	}})
	e.Schedule(1, func() { send(net, 0, 1) })
	e.Run(3)

	if len(s.pkts) != 2 {
		t.Fatalf("delivered %d packets under total duplication, want 2", len(s.pkts))
	}
	if got := net.Stats().Get(netstack.CtrDupes); got != 1 {
		t.Errorf("dupes = %d, want 1", got)
	}
}

func TestRandomScheduleDeterministicAndHealsInHorizon(t *testing.T) {
	cfg := faults.ScheduleConfig{HorizonSecs: 100, Episodes: 8, Severity: 0.7, N: 50}
	a := faults.RandomSchedule(rand.New(rand.NewSource(7)), cfg)
	b := faults.RandomSchedule(rand.New(rand.NewSource(7)), cfg)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different schedules")
	}
	if len(a) != 8 {
		t.Fatalf("got %d episodes, want 8", len(a))
	}
	for i, ep := range a {
		if ep.Start < 0 || ep.Start+ep.Duration > cfg.HorizonSecs {
			t.Errorf("episode %d (%v) escapes horizon: [%g, %g]", i, ep.Kind, ep.Start, ep.Start+ep.Duration)
		}
	}
	c := faults.RandomSchedule(rand.New(rand.NewSource(8)), cfg)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical schedules")
	}
}
