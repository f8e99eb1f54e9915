package netstack

import (
	"testing"

	"probquorum/internal/geom"
	"probquorum/internal/mobility"
	"probquorum/internal/sim"
)

func TestRxLossBlocksDelivery(t *testing.T) {
	for _, stack := range []StackKind{StackSINR, StackIdeal} {
		e := sim.NewEngine(1)
		net := New(e, Config{
			N: 3, Side: 450, Mobility: mobility.NewStatic([]geom.Point{{X: 0}, {X: 150}, {X: 300}}),
			Stack: stack, Neighbors: NeighborsOracle, RxLossProb: 1,
		})
		s := &sink{}
		net.Node(1).Register(testProto, s)
		e.Schedule(0, func() {
			net.Node(0).SendOneHop(1, &Packet{Proto: testProto, Src: 0, Dst: 1, Bytes: 512}, nil)
		})
		e.Run(5)
		if len(s.pkts) != 0 {
			t.Fatalf("stack %d: %d packets delivered through a 100%% lossy receiver", stack, len(s.pkts))
		}
		if got := net.Stats().Get(CtrLossDrops); got == 0 {
			t.Fatalf("stack %d: loss drop not counted", stack)
		}
	}
}

func TestRxLossProbConfig(t *testing.T) {
	e := sim.NewEngine(2)
	net := New(e, Config{N: 30, AvgDegree: 8, Stack: StackIdeal, RxLossProb: 0.5})
	s := &sink{}
	rx := net.Node(1)
	rx.Register(testProto, s)
	nbs := net.Neighbors(1)
	if len(nbs) == 0 {
		t.Skip("node 1 isolated at this seed")
	}
	tx := net.Node(nbs[0])
	const sends = 200
	for i := 0; i < sends; i++ {
		i := i
		e.Schedule(float64(i)*0.05, func() {
			tx.SendOneHop(1, &Packet{Proto: testProto, Src: tx.ID(), Dst: 1, Bytes: 64}, nil)
		})
	}
	e.Run(float64(sends)*0.05 + 5)
	got := len(s.pkts)
	if got < sends/4 || got > 3*sends/4 {
		t.Fatalf("delivered %d/%d at RxLossProb=0.5, want ≈half", got, sends)
	}
	if drops := net.Stats().Get(CtrLossDrops); drops == 0 {
		t.Fatal("no drops counted")
	}
}

func TestLinkFaultDropSelective(t *testing.T) {
	e := sim.NewEngine(3)
	net := lineNetwork(e, 3, 150, StackIdeal)
	// Drop only frames addressed to node 2.
	net.SetLinkFaultFunc(func(from, to int, pkt *Packet) FaultAction { return FaultAction{Drop: to == 2} })
	s1, s2 := &sink{}, &sink{}
	net.Node(1).Register(testProto, s1)
	net.Node(2).Register(testProto, s2)
	e.Schedule(0, func() {
		net.Node(0).SendOneHop(1, &Packet{Proto: testProto, Src: 0, Dst: 1, Bytes: 64}, nil)
		net.Node(1).SendOneHop(2, &Packet{Proto: testProto, Src: 1, Dst: 2, Bytes: 64}, nil)
	})
	e.Run(5)
	if len(s1.pkts) != 1 {
		t.Fatalf("node 1 got %d packets, want 1", len(s1.pkts))
	}
	if len(s2.pkts) != 0 {
		t.Fatalf("node 2 got %d packets through the selective filter", len(s2.pkts))
	}
	if got := net.Stats().Get(CtrFaultDrops); got != 1 {
		t.Fatalf("%d fault drops counted, want 1", got)
	}
	// Disabling restores delivery.
	net.SetLinkFaultFunc(nil)
	e.Schedule(0, func() {
		net.Node(1).SendOneHop(2, &Packet{Proto: testProto, Src: 1, Dst: 2, Bytes: 64}, nil)
	})
	e.Run(10)
	if len(s2.pkts) != 1 {
		t.Fatalf("node 2 got %d packets after disabling loss, want 1", len(s2.pkts))
	}
}
