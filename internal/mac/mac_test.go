package mac

import (
	"math/rand"
	"testing"

	"probquorum/internal/geom"
	"probquorum/internal/phy"
	"probquorum/internal/sim"
)

// recorder collects MAC indications for tests.
type recorder struct {
	received  []*phy.Frame
	overheard []*phy.Frame
	done      []bool
	doneFrame []*phy.Frame
}

func (r *recorder) MACReceive(f *phy.Frame)  { r.received = append(r.received, f) }
func (r *recorder) MACOverhear(f *phy.Frame) { r.overheard = append(r.overheard, f) }
func (r *recorder) MACSendDone(f *phy.Frame, ok bool) {
	r.done = append(r.done, ok)
	r.doneFrame = append(r.doneFrame, f)
}

// dcfWorld builds n DCF MACs on a SINR medium at fixed positions.
func dcfWorld(e *sim.Engine, pts []geom.Point) (*phy.SINRMedium, []*DCF, []*recorder) {
	pos := func(id int) geom.Point { return pts[id] }
	m := phy.NewSINRMedium(e, phy.SINRConfig{N: len(pts), Side: 10000, Pos: pos})
	rng := rand.New(rand.NewSource(7))
	macs := make([]*DCF, len(pts))
	recs := make([]*recorder, len(pts))
	for i := range pts {
		macs[i] = NewDCF(e, i, m.Channel(i), rand.New(rand.NewSource(rng.Int63())))
		recs[i] = &recorder{}
		macs[i].SetHandler(recs[i])
	}
	return m, macs, recs
}

func TestDCFUnicastDelivery(t *testing.T) {
	e := sim.NewEngine(1)
	_, macs, recs := dcfWorld(e, []geom.Point{{X: 0, Y: 0}, {X: 150, Y: 0}})
	f := &phy.Frame{Dst: 1, Bytes: 512, Payload: "hello"}
	e.Schedule(0, func() { macs[0].Send(f) })
	e.Run(1)
	if len(recs[1].received) != 1 || recs[1].received[0].Payload != "hello" {
		t.Fatalf("receiver got %d frames", len(recs[1].received))
	}
	if len(recs[0].done) != 1 || !recs[0].done[0] {
		t.Fatalf("sender MACSendDone = %v, want [true]", recs[0].done)
	}
}

func TestDCFUnicastFailureNotification(t *testing.T) {
	e := sim.NewEngine(1)
	// Destination out of range: all 7 attempts fail → MACSendDone(false).
	_, macs, recs := dcfWorld(e, []geom.Point{{X: 0, Y: 0}, {X: 5000, Y: 0}})
	f := &phy.Frame{Dst: 1, Bytes: 512}
	e.Schedule(0, func() { macs[0].Send(f) })
	e.Run(5)
	if len(recs[0].done) != 1 || recs[0].done[0] {
		t.Fatalf("MACSendDone = %v, want [false] after retries", recs[0].done)
	}
	if macs[0].TxData != retryLimit {
		t.Fatalf("attempts = %d, want %d", macs[0].TxData, retryLimit)
	}
	if len(recs[1].received) != 0 {
		t.Fatal("out-of-range node received the frame")
	}
}

func TestDCFBroadcast(t *testing.T) {
	e := sim.NewEngine(1)
	pts := []geom.Point{{X: 0, Y: 0}, {X: 100, Y: 0}, {X: 0, Y: 100}, {X: 3000, Y: 0}}
	_, macs, recs := dcfWorld(e, pts)
	f := &phy.Frame{Dst: phy.Broadcast, Bytes: 512}
	e.Schedule(0, func() { macs[0].Send(f) })
	e.Run(1)
	for _, id := range []int{1, 2} {
		if len(recs[id].received) != 1 {
			t.Fatalf("node %d got %d broadcast frames", id, len(recs[id].received))
		}
	}
	if len(recs[3].received) != 0 {
		t.Fatal("far node received broadcast")
	}
	if len(recs[0].done) != 1 || !recs[0].done[0] {
		t.Fatal("broadcast send not reported done")
	}
}

func TestDCFQueueSerializesFrames(t *testing.T) {
	e := sim.NewEngine(1)
	_, macs, recs := dcfWorld(e, []geom.Point{{X: 0, Y: 0}, {X: 150, Y: 0}})
	for i := 0; i < 10; i++ {
		f := &phy.Frame{Dst: 1, Bytes: 512, Payload: i}
		e.Schedule(0, func() { macs[0].Send(f) })
	}
	e.Run(5)
	if len(recs[1].received) != 10 {
		t.Fatalf("receiver got %d frames, want 10", len(recs[1].received))
	}
	for i, f := range recs[1].received {
		if f.Payload != i {
			t.Fatalf("frames reordered: position %d holds %v", i, f.Payload)
		}
	}
}

func TestDCFQueueLimit(t *testing.T) {
	e := sim.NewEngine(1)
	_, macs, recs := dcfWorld(e, []geom.Point{{X: 0, Y: 0}, {X: 150, Y: 0}})
	e.Schedule(0, func() {
		for i := 0; i < queueLimit+10; i++ {
			macs[0].Send(&phy.Frame{Dst: 1, Bytes: 512})
		}
	})
	e.Run(10)
	if macs[0].Drops != 10 {
		t.Fatalf("drops = %d, want 10", macs[0].Drops)
	}
	failures := 0
	for _, ok := range recs[0].done {
		if !ok {
			failures++
		}
	}
	if failures != 10 {
		t.Fatalf("failure notifications = %d, want 10", failures)
	}
}

func TestDCFContentionBothDeliver(t *testing.T) {
	e := sim.NewEngine(1)
	// Two senders in carrier-sense range of each other, one receiver:
	// CSMA/CA plus retries should deliver both frames.
	pts := []geom.Point{{X: 0, Y: 0}, {X: 100, Y: 100}, {X: 0, Y: 200}}
	_, macs, recs := dcfWorld(e, pts)
	e.Schedule(0, func() { macs[0].Send(&phy.Frame{Dst: 1, Bytes: 512, Payload: "a"}) })
	e.Schedule(0, func() { macs[2].Send(&phy.Frame{Dst: 1, Bytes: 512, Payload: "b"}) })
	e.Run(5)
	if len(recs[1].received) != 2 {
		t.Fatalf("receiver got %d frames under contention, want 2", len(recs[1].received))
	}
}

func TestDCFManyBroadcastersNoDeadlock(t *testing.T) {
	e := sim.NewEngine(1)
	var pts []geom.Point
	for i := 0; i < 12; i++ {
		pts = append(pts, geom.Point{X: float64(i%4) * 50, Y: float64(i/4) * 50})
	}
	_, macs, recs := dcfWorld(e, pts)
	for i := range macs {
		mac := macs[i]
		e.Schedule(0.001*float64(i%3), func() { mac.Send(&phy.Frame{Dst: phy.Broadcast, Bytes: 512}) })
	}
	e.Run(10)
	for i, r := range recs {
		if len(r.done) != 1 {
			t.Fatalf("node %d completed %d sends, want 1", i, len(r.done))
		}
	}
}

func TestDCFPromiscuous(t *testing.T) {
	e := sim.NewEngine(1)
	pts := []geom.Point{{X: 0, Y: 0}, {X: 150, Y: 0}, {X: 0, Y: 150}}
	_, macs, recs := dcfWorld(e, pts)
	macs[2].SetPromiscuous(true)
	e.Schedule(0, func() { macs[0].Send(&phy.Frame{Dst: 1, Bytes: 512}) })
	e.Run(1)
	if len(recs[2].overheard) == 0 {
		t.Fatal("promiscuous node overheard nothing")
	}
	if len(recs[2].received) != 0 {
		t.Fatal("promiscuous node 'received' a frame not addressed to it")
	}
}

func TestDCFDuplicateSuppression(t *testing.T) {
	// If an ACK is lost, the sender retransmits; the receiver must not
	// deliver the duplicate. We approximate by checking the dedup path
	// directly: two data frames with the same seq from the same source.
	e := sim.NewEngine(1)
	_, macs, recs := dcfWorld(e, []geom.Point{{X: 0, Y: 0}, {X: 150, Y: 0}})
	f := &phy.Frame{Src: 0, Dst: 1, Kind: phy.FrameData, Seq: 5, Bytes: 512}
	macs[1].FrameReceived(f)
	macs[1].FrameReceived(f)
	e.Run(1)
	if len(recs[1].received) != 1 {
		t.Fatalf("duplicate delivered: %d receptions", len(recs[1].received))
	}
}

func idealWorld(e *sim.Engine, pts []geom.Point) (*IdealNet, []*recorder) {
	pos := func(id int) geom.Point { return pts[id] }
	in := NewIdealNet(e, len(pts), 200, pos, rand.New(rand.NewSource(3)))
	recs := make([]*recorder, len(pts))
	for i := range pts {
		recs[i] = &recorder{}
		in.MAC(i).SetHandler(recs[i])
	}
	return in, recs
}

func TestIdealUnicast(t *testing.T) {
	e := sim.NewEngine(1)
	in, recs := idealWorld(e, []geom.Point{{X: 0, Y: 0}, {X: 150, Y: 0}, {X: 500, Y: 0}})
	e.Schedule(0, func() { in.MAC(0).Send(&phy.Frame{Dst: 1, Bytes: 512, Payload: "x"}) })
	e.Schedule(0, func() { in.MAC(0).Send(&phy.Frame{Dst: 2, Bytes: 512}) })
	e.Run(1)
	if len(recs[1].received) != 1 {
		t.Fatal("in-range unicast not delivered")
	}
	if len(recs[2].received) != 0 {
		t.Fatal("out-of-range unicast delivered")
	}
	if len(recs[0].done) != 2 || !recs[0].done[0] || recs[0].done[1] {
		t.Fatalf("send results %v, want [true false]", recs[0].done)
	}
}

func TestIdealBroadcastAndDisable(t *testing.T) {
	e := sim.NewEngine(1)
	in, recs := idealWorld(e, []geom.Point{{X: 0, Y: 0}, {X: 100, Y: 0}, {X: 150, Y: 0}})
	in.SetEnabled(2, false)
	e.Schedule(0, func() { in.MAC(0).Send(&phy.Frame{Dst: phy.Broadcast, Bytes: 512}) })
	e.Run(1)
	if len(recs[1].received) != 1 {
		t.Fatal("broadcast missed enabled node")
	}
	if len(recs[2].received) != 0 {
		t.Fatal("broadcast reached disabled node")
	}
	if !in.Enabled(1) || in.Enabled(2) {
		t.Fatal("Enabled() inconsistent")
	}
}

func TestIdealLossModel(t *testing.T) {
	e := sim.NewEngine(1)
	pts := []geom.Point{{X: 0, Y: 0}, {X: 100, Y: 0}}
	pos := func(id int) geom.Point { return pts[id] }
	in := NewIdealNet(e, 2, 200, pos, rand.New(rand.NewSource(3)))
	in.LossProb = 1.0 // every attempt fails
	rec := &recorder{}
	in.MAC(0).SetHandler(rec)
	e.Schedule(0, func() { in.MAC(0).Send(&phy.Frame{Dst: 1, Bytes: 512}) })
	e.Run(1)
	if len(rec.done) != 1 || rec.done[0] {
		t.Fatalf("with LossProb=1 send should fail: %v", rec.done)
	}
}

func TestIdealPromiscuous(t *testing.T) {
	e := sim.NewEngine(1)
	in, recs := idealWorld(e, []geom.Point{{X: 0, Y: 0}, {X: 100, Y: 0}, {X: 0, Y: 100}})
	in.MAC(2).SetPromiscuous(true)
	e.Schedule(0, func() { in.MAC(0).Send(&phy.Frame{Dst: 1, Bytes: 512}) })
	e.Run(1)
	if len(recs[2].overheard) != 1 {
		t.Fatalf("promiscuous overheard %d frames, want 1", len(recs[2].overheard))
	}
}
