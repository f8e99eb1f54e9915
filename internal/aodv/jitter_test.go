package aodv

import (
	"testing"

	"probquorum/internal/netstack"
	"probquorum/internal/sim"
)

// rreqFrame is one RREQ copy as the delivery observer saw it on the air.
type rreqFrame struct {
	from, to int
	orig     int
	id       uint32
}

// TestJitteredRREQOfDeadNode: node 0 starts a discovery and dies while its
// RREQ waits out the jitter; node 2 starts one at the same instant. The dead
// node's broadcast sends nothing, node 2's goes out once with its own request,
// and both jittered records end up back on the free list, emptied. A record
// handed back before its event fired would let node 2's discovery take it
// over, and both events would send node 2's request.
func TestJitteredRREQOfDeadNode(t *testing.T) {
	e := sim.NewEngine(3)
	net, r, _ := lineWorld(e, 5, 150)
	var frames []rreqFrame
	net.SetDeliveryObserver(func(from, to int, pkt *netstack.Packet) {
		if req, ok := pkt.Payload.(*rreqMsg); ok {
			frames = append(frames, rreqFrame{from, to, req.Orig, req.ID})
		}
	})
	e.At(0, func() {
		r.PrefetchRoutes(0, []int{4})
		net.Fail(0)
		r.PrefetchRoutes(2, []int{4})
	})
	e.Run(0.1)

	own := map[int]int{} // node 2's first-ring copies, by receiver
	for _, f := range frames {
		if f.from == 0 || f.orig == 0 {
			t.Fatalf("a request of the dead node 0 went on the air: %+v", f)
		}
		if f.from == 2 && f.orig == 2 {
			own[f.to]++
		}
	}
	if len(own) != 2 || own[1] != 1 || own[3] != 1 {
		t.Fatalf("node 2's request reached its neighbours %v times, want once each at 1 and 3", own)
	}
	if r.jittered.Len() < 2 {
		t.Fatalf("%d jittered records back on the free list after two broadcasts, want >= 2", r.jittered.Len())
	}
	for i := 0; r.jittered.Len() > 0; i++ {
		if b := r.jittered.Get(); b.node != nil || b.pkt != (netstack.Packet{}) || b.fn == nil {
			t.Fatalf("free record %d not emptied or lost its bound event: %+v", i, *b)
		}
	}
}
