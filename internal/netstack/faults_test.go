package netstack

import (
	"testing"

	"probquorum/internal/sim"
)

// TestLinkFaultDuplication injects total duplication and asserts the exact
// counter and delivery arithmetic: one send, two arrivals, two deliveries,
// one dupe.
func TestLinkFaultDuplication(t *testing.T) {
	e := sim.NewEngine(1)
	net := lineNetwork(e, 2, 150, StackIdeal)
	s := &sink{}
	net.Node(1).Register(testProto, s)
	net.SetLinkFaultFunc(func(from, to int, pkt *Packet) FaultAction {
		return FaultAction{Duplicate: true}
	})
	e.Schedule(0, func() {
		net.Node(0).SendOneHop(1, &Packet{Proto: testProto, Src: 0, Dst: 1, Bytes: 64}, nil)
	})
	e.Run(2)

	if len(s.pkts) != 2 {
		t.Fatalf("delivered %d packets, want 2", len(s.pkts))
	}
	st := net.Stats()
	if got := st.Get(CtrDupes); got != 1 {
		t.Errorf("dupes = %d, want 1", got)
	}
	if got := st.Get(CtrRxArrivals); got != 2 {
		t.Errorf("rxarrivals = %d, want 2 (the copy is its own arrival)", got)
	}
	if got := st.Get(CtrRxDelivered); got != 2 {
		t.Errorf("rxdelivered = %d, want 2", got)
	}
}

// TestLinkFaultReordering delays only the first frame on the link so the
// second overtakes it, and asserts exactly one reorder is counted.
func TestLinkFaultReordering(t *testing.T) {
	e := sim.NewEngine(1)
	net := lineNetwork(e, 2, 150, StackIdeal)
	s := &sink{}
	net.Node(1).Register(testProto, s)
	first := true
	net.SetLinkFaultFunc(func(from, to int, pkt *Packet) FaultAction {
		if first {
			first = false
			return FaultAction{Delay: 0.5}
		}
		return FaultAction{}
	})
	e.Schedule(0, func() {
		net.Node(0).SendOneHop(1, &Packet{Proto: testProto, Src: 0, Dst: 1, Bytes: 64, Payload: "slow"}, nil)
		net.Node(0).SendOneHop(1, &Packet{Proto: testProto, Src: 0, Dst: 1, Bytes: 64, Payload: "fast"}, nil)
	})
	e.Run(2)

	if len(s.pkts) != 2 {
		t.Fatalf("delivered %d packets, want 2", len(s.pkts))
	}
	if s.pkts[0].Payload != "fast" || s.pkts[1].Payload != "slow" {
		t.Fatalf("delivery order = %v, %v; want fast then slow", s.pkts[0].Payload, s.pkts[1].Payload)
	}
	if got := net.Stats().Get(CtrReorders); got != 1 {
		t.Errorf("reorders = %d, want 1", got)
	}
	if got := net.PendingFaultDeliveries(); got != 0 {
		t.Errorf("pending delayed deliveries = %d after drain, want 0", got)
	}
}

// TestPartitionBlocksOnlyCrossTraffic splits a 4-node line into {0,1} and
// {2,3}: cross-partition sends must not deliver while the split holds,
// same-side traffic must be untouched, and healing must restore the link.
func TestPartitionBlocksOnlyCrossTraffic(t *testing.T) {
	e := sim.NewEngine(1)
	net := lineNetwork(e, 4, 150, StackIdeal)
	sinks := make([]*sink, 4)
	for i := range sinks {
		sinks[i] = &sink{}
		net.Node(i).Register(testProto, sinks[i])
	}
	side := []int{0, 0, 1, 1}
	split := true
	net.SetPartitionFunc(func(a, b int) bool { return split && side[a] != side[b] })

	send := func(from, to int) {
		net.Node(from).SendOneHop(to, &Packet{Proto: testProto, Src: from, Dst: to, Bytes: 64}, nil)
	}
	e.Schedule(0, func() {
		send(1, 2) // cross: must drop
		send(1, 0) // same side: must deliver
		send(2, 3) // same side: must deliver
	})
	e.Schedule(1, func() { split = false })
	e.Schedule(1.1, func() { send(1, 2) }) // healed: must deliver
	e.Run(3)

	if len(sinks[2].pkts) != 1 {
		t.Fatalf("node 2 received %d packets, want 1 (post-heal only)", len(sinks[2].pkts))
	}
	if len(sinks[0].pkts) != 1 || len(sinks[3].pkts) != 1 {
		t.Fatal("same-side traffic was disturbed by the partition")
	}
	if got := net.Stats().Get(CtrPartitionDrops); got != 1 {
		t.Errorf("partition drops = %d, want 1", got)
	}
}

// TestFaultConservationIdentity drives drops, dupes, and delays at once and
// verifies every arrival is accounted for.
func TestFaultConservationIdentity(t *testing.T) {
	e := sim.NewEngine(7)
	net := lineNetwork(e, 2, 150, StackIdeal)
	s := &sink{}
	net.Node(1).Register(testProto, s)
	i := 0
	net.SetLinkFaultFunc(func(from, to int, pkt *Packet) FaultAction {
		i++
		switch i % 3 {
		case 0:
			return FaultAction{Drop: true}
		case 1:
			return FaultAction{Duplicate: true, Delay: 0.2}
		default:
			return FaultAction{}
		}
	})
	e.Schedule(0, func() {
		for k := 0; k < 9; k++ {
			net.Node(0).SendOneHop(1, &Packet{Proto: testProto, Src: 0, Dst: 1, Bytes: 64}, nil)
		}
	})
	e.Run(5)

	st := net.Stats()
	accounted := st.Get(CtrRxDelivered) + st.Get(CtrLossDrops) +
		st.Get(CtrPartitionDrops) + st.Get(CtrFaultDrops) +
		int64(net.PendingFaultDeliveries())
	if st.Get(CtrRxArrivals) != accounted {
		t.Fatalf("conservation broken: arrivals %d, accounted %d",
			st.Get(CtrRxArrivals), accounted)
	}
	if int64(len(s.pkts)) != st.Get(CtrRxDelivered) {
		t.Fatalf("sink saw %d, delivered counter says %d", len(s.pkts), st.Get(CtrRxDelivered))
	}
}

// TestFaultDelayedDeliveryOwnsItsPacket: a fault-delayed frame is the one
// delivery that outlives its sender's envelope. By the time it is handed up
// the envelope has been recycled and is in flight again with a different
// send; the delayed frame must still be the packet that was sent.
func TestFaultDelayedDeliveryOwnsItsPacket(t *testing.T) {
	e := sim.NewEngine(1)
	net := lineNetwork(e, 2, 150, StackIdeal)
	s := &sink{}
	net.Node(1).Register(testProto, s)
	send := func(payload string, ttl int) {
		net.Node(0).SendOneHop(1, &Packet{Proto: testProto, Src: 0, Dst: 1, TTL: ttl, Bytes: 64, Payload: payload}, nil)
	}
	first := true
	net.SetLinkFaultFunc(func(from, to int, pkt *Packet) FaultAction {
		if !first {
			return FaultAction{}
		}
		first = false
		// Now is one air time: the second send leaves half an air time
		// before the delayed frame lands, and lands after it.
		e.Schedule(0.5-e.Now()/2, func() { send("reuser", 3) })
		return FaultAction{Delay: 0.5}
	})
	var freeAtDelivery []int
	net.SetDeliveryObserver(func(int, int, *Packet) { freeAtDelivery = append(freeAtDelivery, len(net.envFree)) })
	e.Schedule(0, func() { send("delayed", 7) })
	e.Run(2)

	if len(freeAtDelivery) != 2 || freeAtDelivery[0] != 0 || len(net.envFree) != 1 {
		t.Fatalf("free envelopes at the deliveries %v, %d at the end; want the one envelope in flight again when the delayed frame lands",
			freeAtDelivery, len(net.envFree))
	}
	if len(s.pkts) != 2 {
		t.Fatalf("delivered %d packets, want 2", len(s.pkts))
	}
	for i, want := range []Packet{{Payload: "delayed", TTL: 7}, {Payload: "reuser", TTL: 3}} {
		if got := s.pkts[i]; got.Payload != want.Payload || got.TTL != want.TTL {
			t.Errorf("delivery %d = {%v TTL %d}, want {%v TTL %d}", i, got.Payload, got.TTL, want.Payload, want.TTL)
		}
	}
}
