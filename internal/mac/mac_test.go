package mac

import (
	"math/rand"
	"testing"

	"probquorum/internal/geom"
	"probquorum/internal/mobility"
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
	m := phy.NewSINRMedium(e, phy.SINRConfig{N: len(pts), Side: 10000, Pos: mobility.NewStatic(pts)})
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

// TestDCFUnicastHopAllocFree pins the allocation-free unicast hop: on a
// two-node SINR medium, once the pools are warm, a data frame's access,
// transmission and delivery, the receiver's ACK after SIFS and the sender's
// completion allocate nothing.
func TestDCFUnicastHopAllocFree(t *testing.T) {
	e := sim.NewEngine(1)
	_, macs, _ := dcfWorld(e, []geom.Point{{X: 0, Y: 0}, {X: 150, Y: 0}})
	for _, d := range macs {
		d.SetHandler(nopHandler{})
	}
	f := &phy.Frame{Dst: 1}
	hop := func() {
		f.Bytes = 512 // Send adds the MAC header
		macs[0].Send(f)
		e.Run(e.Now() + 0.01)
	}
	for i := 0; i < 8; i++ {
		hop()
	}
	if a := testing.AllocsPerRun(100, hop); a != 0 {
		t.Fatalf("a DATA/ACK exchange allocates %.1f objects, want 0", a)
	}
	// 8 warm-up hops, AllocsPerRun's own warm-up and 100: each acknowledged
	// at its first attempt.
	if macs[0].TxData != 109 || macs[0].TxRetries != 0 || macs[0].QueueLen() != 0 || macs[1].TxAck != 109 {
		t.Fatalf("%d data frames, %d retries, %d still queued, %d ACKs; want 109, 0, 0, 109",
			macs[0].TxData, macs[0].TxRetries, macs[0].QueueLen(), macs[1].TxAck)
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
	in := NewIdealNet(e, len(pts), 200, mobility.NewStatic(pts), rand.New(rand.NewSource(3)))
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
	in := NewIdealNet(e, 2, 200, mobility.NewStatic(pts), rand.New(rand.NewSource(3)))
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

// edgeCounter counts the carrier edges a channel reports to its handler.
type edgeCounter struct {
	phy.Handler
	n *int
}

func (c edgeCounter) ChannelStateChanged(busy bool) {
	*c.n++
	c.Handler.ChannelStateChanged(busy)
}

// countingChannel hands its handler's carrier edges through an edgeCounter.
type countingChannel struct {
	phy.Channel
	n *int
}

func (c countingChannel) SetHandler(h phy.Handler) { c.Channel.SetHandler(edgeCounter{h, c.n}) }

// TestCarrierGateMatchesAlwaysNotify runs one contended DCF schedule twice —
// with the carrier gate, where a DCF hears carrier edges only while it
// defers, counts DIFS or backs off, and with notifyAlways, where it hears
// every edge as before the gate — and requires the same simulation: per-node
// TxData, TxRetries, TxAck and Drops, the same deliveries and send
// completions in the same order at the same times, and the same number of
// engine events. Twelve senders sit inside one another's carrier-sense range
// (some pairs decode, the rest only sense), and each queues bursts of
// unicasts and broadcasts, enough to overflow some queues. Every third
// unicast a node receives it forwards from inside MACReceive, so a DCF that
// was idle, and its radio muted, starts contending in the middle of the
// radio's signal end: the one place where the radio unmutes between a change
// of its sum and the carrier check that follows it.
func TestCarrierGateMatchesAlwaysNotify(t *testing.T) {
	type delivery struct {
		at       float64
		node     int
		what     string
		src, dst int
		seq      uint32
	}
	type outcome struct {
		stats     [][4]uint64
		log       []delivery
		processed uint64
		edges     int
		// idleForwards counts forwards sent by an idle DCF.
		idleForwards int
	}
	run := func(always bool) outcome {
		defer func(old bool) { notifyAlways = old }(notifyAlways)
		notifyAlways = always
		const n = 12
		rng := rand.New(rand.NewSource(41))
		pts := make([]geom.Point, n)
		for i := range pts {
			pts[i] = geom.Point{X: rng.Float64() * 240, Y: rng.Float64() * 240}
		}
		e := sim.NewEngine(1)
		m := phy.NewSINRMedium(e, phy.SINRConfig{N: n, Side: 1000, Pos: mobility.NewStatic(pts)})
		var out outcome
		macs := make([]*DCF, n)
		for i := range macs {
			macs[i] = NewDCF(e, i, countingChannel{m.Channel(i), &out.edges}, rand.New(rand.NewSource(rng.Int63())))
			macs[i].SetHandler(&logHandler{id: i, e: e, log: func(at float64, node int, what string, f *phy.Frame) {
				out.log = append(out.log, delivery{at, node, what, f.Src, f.Dst, f.Seq})
			}, forward: func(f *phy.Frame) {
				if f.Dst != i || f.Seq%3 != 0 || f.Payload != nil {
					return
				}
				if macs[i].state == dcfIdle {
					out.idleForwards++
				}
				macs[i].Send(&phy.Frame{Dst: (i + 1 + int(f.Seq)%(n-1)) % n, Bytes: 100, Payload: "forwarded"})
			}})
		}
		for i := range macs {
			for at := rng.Float64() * 0.05; at < 2; at += rng.ExpFloat64() * 0.15 {
				burst := 1 + rng.Intn(30)
				dsts := make([]int, burst)
				for k := range dsts {
					if dsts[k] = rng.Intn(n + 3); dsts[k] >= n || dsts[k] == i {
						dsts[k] = phy.Broadcast
					}
				}
				bytes := 40 + rng.Intn(600)
				e.At(at, func() {
					for _, dst := range dsts {
						macs[i].Send(&phy.Frame{Dst: dst, Bytes: bytes})
					}
				})
			}
		}
		e.Run(10)
		for _, d := range macs {
			out.stats = append(out.stats, [4]uint64{d.TxData, d.TxRetries, d.TxAck, d.Drops})
		}
		out.processed = e.Processed()
		return out
	}
	gated, always := run(false), run(true)
	for i := range gated.stats {
		if gated.stats[i] != always.stats[i] {
			t.Fatalf("node %d: gated TxData/TxRetries/TxAck/Drops %v, always-notify %v", i, gated.stats[i], always.stats[i])
		}
	}
	if len(gated.log) != len(always.log) {
		t.Fatalf("gated run logs %d deliveries and completions, always-notify %d", len(gated.log), len(always.log))
	}
	for i := range gated.log {
		if gated.log[i] != always.log[i] {
			t.Fatalf("indication %d: gated %+v, always-notify %+v", i, gated.log[i], always.log[i])
		}
	}
	if gated.processed != always.processed {
		t.Fatalf("gated run processed %d events, always-notify %d", gated.processed, always.processed)
	}
	var retries, drops, acks uint64
	for _, s := range gated.stats {
		retries, drops, acks = retries+s[1], drops+s[3], acks+s[2]
	}
	// The schedule must contend, and the gate must cut edges, or the
	// agreement says nothing.
	if retries < 50 || drops == 0 || acks < 100 || gated.edges >= always.edges || gated.idleForwards < 20 {
		t.Fatalf("schedule too tame: %d retries, %d drops, %d ACKs, %d edges gated against %d, %d forwards from an idle DCF",
			retries, drops, acks, gated.edges, always.edges, gated.idleForwards)
	}
	t.Logf("%d indications, %d events, %d retries, %d drops, %d ACKs, %d forwards from an idle DCF; %d carrier edges reach the DCFs gated, %d always-notify",
		len(gated.log), gated.processed, retries, drops, acks, gated.idleForwards, gated.edges, always.edges)
}

// logHandler reports every MAC indication to log, and hands every received
// frame to forward when it is set.
type logHandler struct {
	id      int
	e       *sim.Engine
	log     func(at float64, node int, what string, f *phy.Frame)
	forward func(f *phy.Frame)
}

func (h *logHandler) MACReceive(f *phy.Frame) {
	h.log(h.e.Now(), h.id, "receive", f)
	if h.forward != nil {
		h.forward(f)
	}
}

func (h *logHandler) MACOverhear(f *phy.Frame) { h.log(h.e.Now(), h.id, "overhear", f) }
func (h *logHandler) MACSendDone(f *phy.Frame, ok bool) {
	what := "done"
	if !ok {
		what = "failed"
	}
	h.log(h.e.Now(), h.id, what, f)
}

// TestAddresseeFilterMatchesDeliverAll runs one DCF schedule of unicasts and
// broadcasts twice — with the radios' addressee filter, where a radio hands up
// only the frames addressed to its node or broadcast (and everything at the
// three promiscuous nodes), and with every radio overhearing, where each
// decoded frame reaches its DCF as before the filter and the DCF discards the
// ones for other nodes — on the exact medium and under CellNoise, whose far
// field the filter no longer re-samples for an unwanted frame. It requires the
// same simulation: per-node TxData, TxAck, TxRetries and Drops, the same
// deliveries, promiscuous overhearings and send completions in the same order
// at the same times, and the same number of engine events. Forty nodes on a
// 900 m square sit within decode, carrier-sense and far-field range of one
// another, and each sends bursts to its decode-range neighbours or broadcasts.
func TestAddresseeFilterMatchesDeliverAll(t *testing.T) {
	type delivery struct {
		at       float64
		node     int
		what     string
		src, dst int
		seq      uint32
	}
	type outcome struct {
		stats     [][4]uint64
		log       []delivery
		processed uint64
		// unwanted counts the frames for another node handed to a DCF that
		// is not promiscuous: what the filter keeps from the MAC.
		unwanted  int
		overheard int
	}
	const n = 40
	promiscuous := func(id int) bool { return id < 3 }
	run := func(cellNoise, deliverAll bool) outcome {
		rng := rand.New(rand.NewSource(43))
		pts := make([]geom.Point, n)
		for i := range pts {
			pts[i] = geom.Point{X: rng.Float64() * 900, Y: rng.Float64() * 900}
		}
		e := sim.NewEngine(1)
		m := phy.NewSINRMedium(e, phy.SINRConfig{N: n, Side: 900, Pos: mobility.NewStatic(pts), CellNoise: cellNoise})
		var out outcome
		macs := make([]*DCF, n)
		for i := range macs {
			macs[i] = NewDCF(e, i, m.Channel(i), rand.New(rand.NewSource(rng.Int63())))
			macs[i].SetHandler(&logHandler{id: i, e: e, log: func(at float64, node int, what string, f *phy.Frame) {
				if what == "overhear" {
					if !promiscuous(node) {
						out.unwanted++
						return
					}
					out.overheard++
				}
				out.log = append(out.log, delivery{at, node, what, f.Src, f.Dst, f.Seq})
			}})
			if promiscuous(i) {
				macs[i].SetPromiscuous(true)
			}
			if deliverAll {
				m.Channel(i).SetOverhear(true)
			}
		}
		for i := range macs {
			var nbrs []int
			for j, p := range pts {
				if j != i && geom.Dist(p, pts[i]) < 190 {
					nbrs = append(nbrs, j)
				}
			}
			for at := rng.Float64() * 0.05; at < 2; at += rng.ExpFloat64() * 0.2 {
				burst := 1 + rng.Intn(10)
				dsts := make([]int, burst)
				for k := range dsts {
					dsts[k] = phy.Broadcast
					if len(nbrs) > 0 && rng.Intn(3) > 0 {
						dsts[k] = nbrs[rng.Intn(len(nbrs))]
					}
				}
				bytes := 40 + rng.Intn(600)
				e.At(at, func() {
					for _, dst := range dsts {
						macs[i].Send(&phy.Frame{Dst: dst, Bytes: bytes})
					}
				})
			}
		}
		e.Run(10)
		for _, d := range macs {
			out.stats = append(out.stats, [4]uint64{d.TxData, d.TxRetries, d.TxAck, d.Drops})
		}
		out.processed = e.Processed()
		return out
	}
	for _, cellNoise := range []bool{false, true} {
		filtered, all := run(cellNoise, false), run(cellNoise, true)
		for i := range filtered.stats {
			if filtered.stats[i] != all.stats[i] {
				t.Fatalf("CellNoise=%v node %d: filtered TxData/TxRetries/TxAck/Drops %v, deliver-all %v", cellNoise, i, filtered.stats[i], all.stats[i])
			}
		}
		if len(filtered.log) != len(all.log) {
			t.Fatalf("CellNoise=%v: filtered run logs %d indications, deliver-all %d", cellNoise, len(filtered.log), len(all.log))
		}
		for i := range filtered.log {
			if filtered.log[i] != all.log[i] {
				t.Fatalf("CellNoise=%v indication %d: filtered %+v, deliver-all %+v", cellNoise, i, filtered.log[i], all.log[i])
			}
		}
		if filtered.processed != all.processed {
			t.Fatalf("CellNoise=%v: filtered run processed %d events, deliver-all %d", cellNoise, filtered.processed, all.processed)
		}
		// The filter must have frames to keep back, and the promiscuous
		// nodes frames to overhear, or the agreement says nothing.
		if filtered.unwanted != 0 || all.unwanted < 1000 || filtered.overheard < 100 || len(filtered.log) < 3000 {
			t.Fatalf("CellNoise=%v: %d and %d unwanted frames handed up (filtered, deliver-all), %d overheard, %d indications",
				cellNoise, filtered.unwanted, all.unwanted, filtered.overheard, len(filtered.log))
		}
		t.Logf("CellNoise=%v: %d indications (%d overheard), %d events; deliver-all handed up %d unwanted frames",
			cellNoise, len(filtered.log), filtered.overheard, filtered.processed, all.unwanted)
	}
}
