package phy

import (
	"math"
	"testing"

	"probquorum/internal/geom"
	"probquorum/internal/sim"
)

// collector records frames and channel transitions.
type collector struct {
	frames []*Frame
	busy   []bool
}

func (c *collector) ChannelStateChanged(b bool) { c.busy = append(c.busy, b) }
func (c *collector) FrameReceived(f *Frame)     { c.frames = append(c.frames, f) }

func staticPos(pts []geom.Point) PositionFunc {
	return func(id int) geom.Point { return pts[id] }
}

// attach gives every node of m a collector.
func attach(m *medium) []*collector {
	cs := make([]*collector, len(m.radios))
	for i := range cs {
		cs[i] = &collector{}
		m.Channel(i).SetHandler(cs[i])
	}
	return cs
}

func newTestSINR(e *sim.Engine, pts []geom.Point) (*SINRMedium, []*collector) {
	m := NewSINRMedium(e, SINRConfig{N: len(pts), Side: 5000, Pos: staticPos(pts)})
	return m, attach(&m.medium)
}

func newTestDisk(e *sim.Engine, pts []geom.Point) (*DiskMedium, []*collector) {
	m := NewDiskMedium(e, DiskConfig{N: len(pts), Side: 5000, Pos: staticPos(pts), Range: 200})
	return m, attach(&m.medium)
}

// mkCore builds one of the two media over static points and hands back the
// shared core, which is all a test of the shared behaviour needs. Each such
// test has one body and runs once per reception rule on the same geometry:
// under both rules 150 m decodes, 250 m is sensed but not decoded, and 310 m
// is neither.
type mkCore func(e *sim.Engine, pts []geom.Point) (*medium, []*collector)

func sinrCore(e *sim.Engine, pts []geom.Point) (*medium, []*collector) {
	m, cs := newTestSINR(e, pts)
	return &m.medium, cs
}

func diskCore(e *sim.Engine, pts []geom.Point) (*medium, []*collector) {
	m, cs := newTestDisk(e, pts)
	return &m.medium, cs
}

func bcast(src, bytes int) *Frame {
	return &Frame{Src: src, Dst: Broadcast, Kind: FrameData, Bytes: bytes, Rate: 2e6}
}

func TestSINRHalfDuplex(t *testing.T) { testHalfDuplex(t, sinrCore) }
func TestDiskHalfDuplex(t *testing.T) { testHalfDuplex(t, diskCore) }

func testHalfDuplex(t *testing.T, mk mkCore) {
	pts := []geom.Point{{X: 0, Y: 0}, {X: 150, Y: 0}}
	t.Run("deaf while transmitting", func(t *testing.T) {
		e := sim.NewEngine(1)
		m, cs := mk(e, pts)
		// Node 1 starts transmitting first; node 0's frame arrives during
		// node 1's transmission and must not be received by node 1.
		e.Schedule(0, func() { m.Channel(1).Transmit(bcast(1, 100)) })
		e.Schedule(0.0001, func() { m.Channel(0).Transmit(bcast(0, 100)) })
		e.Run(1)
		if len(cs[1].frames) != 0 {
			t.Fatal("half-duplex violated: transmitting node received a frame")
		}
	})
	t.Run("transmitting aborts a reception", func(t *testing.T) {
		e := sim.NewEngine(1)
		m, cs := mk(e, pts)
		// Node 1 is decoding node 0's long frame when it sends a short one
		// of its own, over well before the long frame ends: the reception
		// is lost all the same, and counted.
		e.Schedule(0, func() { m.Channel(0).Transmit(bcast(0, 1000)) })
		e.Schedule(0.0005, func() { m.Channel(1).Transmit(bcast(1, 20)) })
		e.Run(1)
		if len(cs[1].frames) != 0 {
			t.Fatal("node decoded a frame it transmitted over")
		}
		if len(cs[0].frames) != 0 {
			t.Fatal("transmitting node 0 received node 1's frame")
		}
		if m.Corrupted != 1 {
			t.Fatalf("Corrupted = %d, want 1 (the aborted reception)", m.Corrupted)
		}
	})
}

func TestSINRCarrierSense(t *testing.T) { testCarrierSense(t, sinrCore) }
func TestDiskCarrierSense(t *testing.T) { testCarrierSense(t, diskCore) }

func testCarrierSense(t *testing.T, mk mkCore) {
	e := sim.NewEngine(1)
	// 250 m: beyond reception (SINR ≈213 m, disk 200 m) but within carrier
	// sense (≈299 m, 300 m); 310 m: beyond both.
	m, cs := mk(e, []geom.Point{{X: 0, Y: 0}, {X: 250, Y: 0}, {X: 310, Y: 0}})
	var nearBusy, farBusy bool
	e.Schedule(0, func() { m.Channel(0).Transmit(bcast(0, 100)) })
	e.Schedule(0.0001, func() {
		nearBusy = m.Channel(1).Busy()
		farBusy = m.Channel(2).Busy()
	})
	e.Run(1)
	if !nearBusy {
		t.Fatal("node within CS range did not sense carrier")
	}
	if farBusy {
		t.Fatal("node beyond CS range sensed carrier")
	}
	if len(cs[1].frames) != 0 {
		t.Fatal("node beyond reception range decoded the frame")
	}
	if m.Channel(1).Busy() {
		t.Fatal("carrier still busy after transmission ended")
	}
	// Transitions reported: busy then idle — and the sender's own, for the
	// duration of its transmission.
	for _, id := range []int{0, 1} {
		if b := cs[id].busy; len(b) != 2 || !b[0] || b[1] {
			t.Fatalf("node %d carrier transitions %v, want [true false]", id, b)
		}
	}
	if len(cs[2].busy) != 0 {
		t.Fatalf("carrier transitions %v beyond CS range, want none", cs[2].busy)
	}
}

func TestSINRDisabledNode(t *testing.T) { testDisabledNode(t, sinrCore) }
func TestDiskDisable(t *testing.T)      { testDisabledNode(t, diskCore) }

func testDisabledNode(t *testing.T, mk mkCore) {
	e := sim.NewEngine(1)
	m, cs := mk(e, []geom.Point{{X: 0, Y: 0}, {X: 150, Y: 0}})
	m.SetEnabled(1, false)
	e.Schedule(0, func() { m.Channel(0).Transmit(bcast(0, 100)) })
	e.Run(1)
	if len(cs[1].frames) != 0 || len(cs[1].busy) != 0 {
		t.Fatal("disabled node received a frame or sensed carrier")
	}
	if m.Enabled(1) {
		t.Fatal("Enabled(1) should be false")
	}
	e.Schedule(0, func() { m.Channel(1).Transmit(bcast(1, 100)) })
	e.Run(2)
	if len(cs[0].frames) != 0 || len(cs[0].busy) != 2 {
		t.Fatal("a disabled node's Transmit reached the air")
	}
	m.SetEnabled(1, true)
	e.Schedule(0, func() { m.Channel(0).Transmit(bcast(0, 100)) })
	e.Run(3)
	if len(cs[1].frames) != 1 {
		t.Fatal("re-enabled node did not receive")
	}
	if !m.Enabled(1) {
		t.Fatal("Enabled(1) should be true")
	}
}

// TestDisableMidFrame: disabling a receiver drops what it was decoding and
// its carrier; the orphaned arrival's end (still walked by the transmission)
// must neither deliver nor disturb the radio after it is re-enabled.
func TestDisableMidFrame(t *testing.T) {
	for _, tc := range []struct {
		name string
		mk   mkCore
	}{{"sinr", sinrCore}, {"disk", diskCore}} {
		t.Run(tc.name, func(t *testing.T) {
			e := sim.NewEngine(1)
			m, cs := tc.mk(e, []geom.Point{{X: 0, Y: 0}, {X: 150, Y: 0}})
			e.Schedule(0, func() { m.Channel(0).Transmit(bcast(0, 1000)) })
			e.Schedule(0.001, func() { m.SetEnabled(1, false) })
			e.Schedule(0.002, func() { m.SetEnabled(1, true) })
			e.Run(1)
			if len(cs[1].frames) != 0 {
				t.Fatal("a frame survived its receiver's outage")
			}
			if b := cs[1].busy; len(b) != 2 || !b[0] || b[1] {
				t.Fatalf("carrier transitions %v, want [true false] (busy, then dropped at disable)", b)
			}
			if m.Channel(1).Busy() || m.radios[1].nActive != 0 {
				t.Fatal("re-enabled radio kept state from before the outage")
			}
		})
	}
}

func TestSINRCorruptedCounter(t *testing.T) { testCorruptedCounter(t, sinrCore) }
func TestDiskCorruptedCounter(t *testing.T) { testCorruptedCounter(t, diskCore) }

func testCorruptedCounter(t *testing.T, mk mkCore) {
	e := sim.NewEngine(1)
	// The middle node decodes 0's frame until 2's collides with it.
	m, cs := mk(e, []geom.Point{{X: 0, Y: 0}, {X: 150, Y: 0}, {X: 300, Y: 0}})
	e.Schedule(0, func() { m.Channel(0).Transmit(bcast(0, 100)) })
	e.Schedule(0.0001, func() { m.Channel(2).Transmit(bcast(2, 100)) })
	e.Run(1)
	if len(cs[1].frames) != 0 {
		t.Fatalf("middle node decoded %d frames through a collision", len(cs[1].frames))
	}
	if m.Corrupted != 1 {
		t.Fatalf("Corrupted = %d, want 1 (the collided reception)", m.Corrupted)
	}
	// A clean reception afterwards is not counted.
	e.Schedule(0, func() { m.Channel(0).Transmit(bcast(0, 100)) })
	e.Run(2)
	if len(cs[1].frames) != 1 || m.Corrupted != 1 {
		t.Fatalf("after a clean frame: %d delivered, Corrupted = %d; want 1 and 1", len(cs[1].frames), m.Corrupted)
	}
}

// transmitAllocScenario builds a static 60-node medium, warms the event and
// transmission pools and the candidate scratch, then measures steady-state
// allocations of one broadcast plus the run that drains its end events.
func transmitAllocScenario(t *testing.T, e *sim.Engine, mkMedium func(n int, side float64, pos PositionFunc) Medium) float64 {
	t.Helper()
	const n = 60
	side := 800.0
	rng := e.NewStream()
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Point{X: rng.Float64() * side, Y: rng.Float64() * side}
	}
	m := mkMedium(n, side, staticPos(pts))
	f := &Frame{Src: 0, Dst: Broadcast, Kind: FrameData, Bytes: 512, Rate: 2e6}
	step := func() {
		m.Channel(0).Transmit(f)
		e.Run(e.Now() + 0.01)
	}
	for i := 0; i < 8; i++ {
		step() // warm the pools
	}
	return testing.AllocsPerRun(100, step)
}

// TestTransmitAllocsBounded pins the transmit hot path at zero steady-state
// allocations per broadcast under both reception rules and with the SINR
// rule's far-field grid on: events and transmission records, arrival slices
// included, must all come from their pools (DESIGN.md §9).
func TestTransmitAllocsBounded(t *testing.T) {
	for _, tc := range []struct {
		name string
		mk   func(e *sim.Engine, n int, side float64, pos PositionFunc) Medium
	}{
		{"sinr", func(e *sim.Engine, n int, side float64, pos PositionFunc) Medium {
			return NewSINRMedium(e, SINRConfig{N: n, Side: side, Pos: pos})
		}},
		{"sinr+CellNoise", func(e *sim.Engine, n int, side float64, pos PositionFunc) Medium {
			return NewSINRMedium(e, SINRConfig{N: n, Side: side, Pos: pos, CellNoise: true})
		}},
		{"disk", func(e *sim.Engine, n int, side float64, pos PositionFunc) Medium {
			return NewDiskMedium(e, DiskConfig{N: n, Side: side, Pos: pos, Range: 200})
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := sim.NewEngine(1)
			avg := transmitAllocScenario(t, e, func(n int, side float64, pos PositionFunc) Medium {
				return tc.mk(e, n, side, pos)
			})
			if avg != 0 {
				t.Fatalf("%s broadcast allocates %.1f objects/op in steady state, want 0", tc.name, avg)
			}
		})
	}
}

// TestDiskMatchesProtocolModel is the slow oracle of the disk rule: random
// static placements, a random schedule of overlapping broadcasts at
// real-valued start times, and the paper's protocol model (§2.3) typed out as
// an O(n²·frames) scan over whole-frame intervals — i's frame reaches j iff
// |Xi−Xj| ≤ r, j is enabled and does not transmit at any instant of the
// frame, and no other node k with |Xk−Xj| ≤ (1+Δ)·r is on the air at any
// instant of it. The event-driven medium (lock at signal start, corrupt on a
// later arrival, half-duplex, one end walk per transmission) must agree
// delivery for delivery.
func TestDiskMatchesProtocolModel(t *testing.T) {
	type tx struct {
		src        int
		start, end float64
		f          *Frame
	}
	const (
		n       = 40
		side    = 1100.0
		horizon = 1.0
		r       = 200.0
	)
	var delivered, refused int
	for seed := int64(1); seed <= 6; seed++ {
		e := sim.NewEngine(seed)
		rng := e.NewStream()
		pts := make([]geom.Point, n)
		for i := range pts {
			pts[i] = geom.Point{X: rng.Float64() * side, Y: rng.Float64() * side}
		}
		m := NewDiskMedium(e, DiskConfig{N: n, Side: side, Pos: staticPos(pts), Range: r})
		cs := attach(&m.medium)
		enabled := make([]bool, n)
		for i := range enabled {
			enabled[i] = rng.Float64() < 0.9
			m.SetEnabled(i, enabled[i])
		}

		// Each node sends back to back with random gaps, never two frames
		// of its own at once (the MAC's job in a full stack); frames of
		// different nodes overlap freely. Disabled nodes are scheduled too:
		// their Transmit must be a no-op.
		var sched []tx
		for i := 0; i < n; i++ {
			for at := rng.Float64() * 0.05; at < horizon; {
				f := bcast(i, 50+rng.Intn(1000))
				f.Seq = uint32(len(sched))
				end := at + m.Channel(i).TxDuration(f)
				sched = append(sched, tx{src: i, start: at, end: end, f: f})
				at = end + rng.ExpFloat64()*0.08
			}
		}
		for _, x := range sched {
			e.At(x.start, func() { m.Channel(x.src).Transmit(x.f) })
		}
		e.Run(horizon + 1)

		got := make(map[[2]int]bool) // (frame, receiver)
		for j, c := range cs {
			for _, f := range c.frames {
				key := [2]int{int(f.Seq), j}
				if got[key] {
					t.Fatalf("seed %d: frame %d delivered twice to %d", seed, f.Seq, j)
				}
				got[key] = true
			}
		}

		overlaps := func(a, b tx) bool { return a.start < b.end && b.start < a.end }
		for fi, x := range sched {
			if !enabled[x.src] {
				continue // never on the air
			}
			for j := 0; j < n; j++ {
				if j == x.src {
					continue
				}
				want := enabled[j] && geom.Dist(pts[x.src], pts[j]) <= r
				for ki := 0; want && ki < len(sched); ki++ {
					k := sched[ki]
					if ki == fi || !enabled[k.src] || !overlaps(x, k) {
						continue
					}
					if k.src == j || geom.Dist(pts[k.src], pts[j]) <= (1+diskDelta)*r {
						want = false
					}
				}
				if got[[2]int{fi, j}] != want {
					t.Fatalf("seed %d: frame %d (%d→%d, [%.6f, %.6f]): medium delivered=%v, protocol model says %v",
						seed, fi, x.src, j, x.start, x.end, !want, want)
				}
				if geom.Dist(pts[x.src], pts[j]) <= r {
					if want {
						delivered++
					} else {
						refused++
					}
				}
			}
		}
		for key := range got {
			if !enabled[sched[key[0]].src] {
				t.Fatalf("seed %d: disabled node %d got frame %d on the air", seed, sched[key[0]].src, key[0])
			}
		}
	}
	// The schedule must exercise both outcomes, or the comparison is hollow.
	if delivered < 100 || refused < 100 {
		t.Fatalf("in-range pairs: %d delivered, %d refused; the schedule is too sparse or too dense to test the rule", delivered, refused)
	}
	t.Logf("in-range (frame, receiver) pairs: %d delivered, %d refused by interference or half-duplex", delivered, refused)
}

// resumOracle is the bookkeeping the running sum replaced, kept as the
// reference: every radio lists the signals on it, finds one by search at its
// end, and re-adds the list whenever a power is asked for. It runs in a world
// of its own and borrows a second medium of the same construction for all
// that is not under test — engine, spatial index, the reception rule with its
// far-field state, the carrier edge — feeding the rule through that medium's
// radios, whose sumMw/nActive it overwrites with a fresh re-sum before every
// question. The medium's own Transmit, signalBegin and signalEnd never run
// there.
type resumOracle struct {
	m      *medium
	active [][]*listedSignal // per radio
	locked []*listedSignal   // per radio
}

type listedSignal struct {
	signal
	frame *Frame
	rx    int
}

func (o *resumOracle) resum(id int) float64 {
	sum := 0.0
	for _, a := range o.active[id] {
		sum += a.powerMw
	}
	return sum
}

// sync hands r the re-summed view of what it hears.
func (o *resumOracle) sync(r *radio) *radio {
	r.sumMw, r.nActive = o.resum(r.id), len(o.active[r.id])
	return r
}

func (o *resumOracle) transmit(src int, f *Frame) {
	m, r := o.m, o.m.radios[src]
	if !m.Enabled(src) {
		return
	}
	end := m.engine.Now() + r.TxDuration(f)
	if o.locked[src] != nil {
		r.corrupted = true
	}
	r.txUntil = end
	m.engine.At(end, func() {
		m.rule.txEnd(src)
		o.sync(r).updateCarrier()
	})
	o.sync(r).updateCarrier()
	srcPos := m.world.pos(src)
	m.rule.txStart(src, srcPos)
	var arrivals []*listedSignal
	for _, dst := range m.world.candidates(src, m.candRange) {
		if s, ok := m.rule.signal(geom.Dist(srcPos, m.world.pos(dst))); ok && dst != src {
			arrivals = append(arrivals, &listedSignal{s, f, dst})
		}
	}
	if len(arrivals) == 0 {
		return
	}
	for _, a := range arrivals {
		o.begin(a)
	}
	m.engine.At(end, func() {
		for _, a := range arrivals {
			o.end(a)
		}
	})
}

func (o *resumOracle) begin(a *listedSignal) {
	m, r := o.m, o.m.radios[a.rx]
	if !m.Enabled(a.rx) {
		return
	}
	o.active[a.rx] = append(o.active[a.rx], a)
	o.sync(r)
	switch {
	case m.engine.Now() < r.txUntil:
	case o.locked[a.rx] == nil:
		if m.rule.locks(r, a.signal) {
			o.locked[a.rx], r.lockedSig = a, a.signal
			r.corrupted = false
		}
	default:
		if m.rule.corrupts(r) {
			r.corrupted = true
		}
	}
	r.updateCarrier()
}

func (o *resumOracle) end(a *listedSignal) {
	m, r := o.m, o.m.radios[a.rx]
	for i, x := range o.active[a.rx] {
		if x == a {
			last := len(o.active[a.rx]) - 1
			o.active[a.rx][i] = o.active[a.rx][last]
			o.active[a.rx] = o.active[a.rx][:last]
			break
		}
	}
	if o.locked[a.rx] == a {
		delivered := !r.corrupted && m.engine.Now() >= r.txUntil && m.rule.survives(o.sync(r))
		if !delivered {
			m.Corrupted++
		}
		o.locked[a.rx] = nil
		r.corrupted = false
		if delivered && r.handler != nil && m.Enabled(a.rx) {
			r.handler.FrameReceived(a.frame)
		}
	}
	o.sync(r).updateCarrier()
}

func (o *resumOracle) setEnabled(id int, on bool) {
	o.m.world.setEnabled(id, on)
	if !on {
		r := o.m.radios[id]
		o.active[id], o.locked[id] = nil, nil
		r.corrupted, r.txUntil = false, 0
		o.sync(r).updateCarrier()
	}
}

// setNoise is SINRMedium.SetExtraNoise over the lists.
func (o *resumOracle) setNoise(id int, mw float64) {
	r := o.sync(o.m.radios[id])
	r.noiseMw = mw
	if o.locked[id] != nil && o.m.rule.corrupts(r) {
		r.corrupted = true
	}
	r.updateCarrier()
}

// stormWorld is one of the two worlds of TestRunningSumMatchesResum: an
// engine, a medium, the three things the schedule does to it, and the log of
// everything its handlers were told.
type stormWorld struct {
	e          *sim.Engine
	m          *medium
	transmit   func(src int, f *Frame)
	setEnabled func(id int, on bool)
	setNoise   func(id int, mw float64) // nil under the disk rule
	log        []stormEvent
	replies    int
}

type stormEvent struct {
	at   float64
	node int
	what string // "busy", "idle", "frame"
	seq  uint32
}

// stormReplyBit marks the frames handlers send, which are not answered in turn.
const stormReplyBit = 1 << 30

type stormNode struct {
	w  *stormWorld
	id int
}

func (h stormNode) ChannelStateChanged(busy bool) {
	what := "idle"
	if busy {
		what = "busy"
	}
	h.w.log = append(h.w.log, stormEvent{h.w.e.Now(), h.id, what, 0})
}

// FrameReceived answers every third scheduled frame on the spot — a
// transmission started from inside another's end walk — unless the node is on
// the air itself.
func (h stormNode) FrameReceived(f *Frame) {
	w := h.w
	w.log = append(w.log, stormEvent{w.e.Now(), h.id, "frame", f.Seq})
	if f.Seq%3 == 0 && f.Seq&stormReplyBit == 0 && w.e.Now() >= w.m.radios[h.id].txUntil {
		w.replies++
		w.transmit(h.id, &Frame{Src: h.id, Dst: Broadcast, Kind: FrameData, Seq: stormReplyBit | f.Seq, Bytes: 40, Rate: 2e6})
	}
}

// TestRunningSumMatchesResum drives the medium and the list-and-re-sum
// bookkeeping it replaced (resumOracle) through one seeded storm each —
// overlapping broadcasts, radios switched off and back on in mid-frame,
// jamming noise set and cleared, handlers that transmit from inside
// FrameReceived — one engine event at a time, and after every event requires
// of every radio the same signal count, decoded frame, corruption flag and
// carrier state, a running sum within 1e-12 of the re-sum (relative to the
// most the radio has heard since it last heard nothing), and the same handler
// calls and Corrupted count so far; once the air is clear every running sum
// must be exactly 0.
func TestRunningSumMatchesResum(t *testing.T) {
	const (
		n       = 40
		side    = 1100.0
		horizon = 0.4
	)
	for _, tc := range []struct {
		name string
		mk   func(e *sim.Engine, pos PositionFunc) (*medium, func(int, float64))
	}{
		{"sinr", func(e *sim.Engine, pos PositionFunc) (*medium, func(int, float64)) {
			m := NewSINRMedium(e, SINRConfig{N: n, Side: side, Pos: pos})
			return &m.medium, m.SetExtraNoise
		}},
		{"sinr+CellNoise", func(e *sim.Engine, pos PositionFunc) (*medium, func(int, float64)) {
			m := NewSINRMedium(e, SINRConfig{N: n, Side: side, Pos: pos, CellNoise: true})
			return &m.medium, m.SetExtraNoise
		}},
		{"disk", func(e *sim.Engine, pos PositionFunc) (*medium, func(int, float64)) {
			m := NewDiskMedium(e, DiskConfig{N: n, Side: side, Pos: pos, Range: 200})
			return &m.medium, nil
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := sim.NewEngine(7).NewStream()
			pts := make([]geom.Point, n)
			for i := range pts {
				pts[i] = geom.Point{X: rng.Float64() * side, Y: rng.Float64() * side}
			}

			got := &stormWorld{e: sim.NewEngine(1)}
			var jam func(int, float64)
			got.m, jam = tc.mk(got.e, staticPos(pts))
			got.transmit = func(src int, f *Frame) { got.m.Channel(src).Transmit(f) }
			disabledHearing := 0
			got.setEnabled, got.setNoise = func(id int, on bool) {
				if !on && got.m.radios[id].nActive > 0 {
					disabledHearing++
				}
				got.m.SetEnabled(id, on)
			}, jam

			want := &stormWorld{e: sim.NewEngine(1)}
			want.m, jam = tc.mk(want.e, staticPos(pts))
			o := &resumOracle{m: want.m, active: make([][]*listedSignal, n), locked: make([]*listedSignal, n)}
			want.transmit, want.setEnabled = o.transmit, o.setEnabled
			if jam != nil {
				want.setNoise = o.setNoise
			}
			worlds := []*stormWorld{got, want}
			for _, w := range worlds {
				for i := 0; i < n; i++ {
					w.m.Channel(i).SetHandler(stormNode{w, i})
				}
			}

			// The schedule, laid into both engines alike. Each node sends
			// back to back with random gaps; outages are shorter than most
			// frames, so a radio is usually back while signals it had
			// counted are still on the air.
			seq := uint32(0)
			for i := 0; i < n; i++ {
				for at := rng.Float64() * 0.02; at < horizon; {
					seq++
					f := bcast(i, 50+rng.Intn(900))
					f.Seq = seq
					for _, w := range worlds {
						w.e.At(at, func() { w.transmit(i, f) })
					}
					at += got.m.Channel(i).TxDuration(f) + rng.ExpFloat64()*0.015
				}
			}
			for at := 0.0; at < horizon; at += rng.ExpFloat64() * 0.002 {
				id, back := rng.Intn(n), at+0.0002+rng.Float64()*0.001
				for _, w := range worlds {
					w.e.At(at, func() { w.setEnabled(id, false) })
					w.e.At(back, func() { w.setEnabled(id, true) })
				}
			}
			if got.setNoise != nil {
				cs := got.m.csThreshMw
				for at := 0.0; at < horizon; at += rng.ExpFloat64() * 0.003 {
					id, mw := rng.Intn(n), [...]float64{0, 0, cs / 50, cs / 2, 2 * cs}[rng.Intn(5)]
					for _, w := range worlds {
						w.e.At(at, func() { w.setNoise(id, mw) })
					}
				}
			}
			// A subtraction leaves the rounding of the sum it was taken from,
			// so the running sum is held to 1e-12 of the largest re-sum of the
			// radio's current busy period, not of what is left of it.
			high, worst := make([]float64, n), 0.0
			peak, logged := 0, 0
			for step := 0; got.e.Pending() > 0; step++ {
				// RunAll(1) is the engine's single step: it runs one event
				// and reports that the budget of one is used up.
				_ = got.e.RunAll(1)
				_ = want.e.RunAll(1)
				if got.e.Now() != want.e.Now() || got.e.Pending() != want.e.Pending() {
					t.Fatalf("step %d: worlds out of step: t=%.9f with %d pending, oracle t=%.9f with %d",
						step, got.e.Now(), got.e.Pending(), want.e.Now(), want.e.Pending())
				}
				for id, r := range got.m.radios {
					ref := want.m.radios[id]
					resum := o.resum(id)
					if high[id] = math.Max(high[id], resum); resum == 0 {
						high[id] = 0
					}
					if r.nActive != len(o.active[id]) || math.Abs(r.sumMw-resum) > 1e-12*high[id] {
						t.Fatalf("step %d t=%.9f radio %d: running sum %g over %d signals, re-sum %g over %d (busy-period high %g)",
							step, got.e.Now(), id, r.sumMw, r.nActive, resum, len(o.active[id]), high[id])
					}
					if resum > 0 {
						worst = math.Max(worst, math.Abs(r.sumMw-resum)/resum)
					}
					decoding, refDecoding := int64(-1), int64(-1)
					if r.locked != nil {
						decoding = int64(r.locked.frame.Seq)
					}
					if o.locked[id] != nil {
						refDecoding = int64(o.locked[id].frame.Seq)
					}
					if decoding != refDecoding || r.corrupted != ref.corrupted || r.busy != ref.busy || r.txUntil != ref.txUntil {
						t.Fatalf("step %d t=%.9f radio %d: decoding frame %d (corrupted=%v) busy=%v txUntil=%g; oracle frame %d (corrupted=%v) busy=%v txUntil=%g",
							step, got.e.Now(), id, decoding, r.corrupted, r.busy, r.txUntil, refDecoding, ref.corrupted, ref.busy, ref.txUntil)
					}
					if r.nActive > peak {
						peak = r.nActive
					}
				}
				if len(got.log) != len(want.log) || got.m.Corrupted != want.m.Corrupted {
					t.Fatalf("step %d t=%.9f: %d handler calls and %d corrupted, oracle %d and %d",
						step, got.e.Now(), len(got.log), got.m.Corrupted, len(want.log), want.m.Corrupted)
				}
				for ; logged < len(got.log); logged++ {
					if got.log[logged] != want.log[logged] {
						t.Fatalf("step %d: handler call %d is %+v, oracle %+v", step, logged, got.log[logged], want.log[logged])
					}
				}
			}
			for id, r := range got.m.radios {
				if r.sumMw != 0 || r.nActive != 0 || r.locked != nil {
					t.Fatalf("radio %d after the air cleared: sum %g over %d signals, locked=%v; want exactly 0, 0, nil", id, r.sumMw, r.nActive, r.locked != nil)
				}
			}
			frames := 0
			for _, ev := range got.log {
				if ev.what == "frame" {
					frames++
				}
			}
			// The storm must exercise what it claims to, or the agreement
			// is hollow.
			if frames < 300 || got.m.Corrupted < 300 || got.replies < 30 || disabledHearing < 30 || peak < 4 {
				t.Fatalf("storm too tame: %d deliveries, %d corrupted, %d synchronous replies, %d outages of a hearing radio, peak %d signals on one radio",
					frames, got.m.Corrupted, got.replies, disabledHearing, peak)
			}
			t.Logf("%d deliveries, %d corrupted, %d synchronous replies, %d outages of a hearing radio, peak %d signals on one radio, worst |sum−re-sum|/re-sum %.2g",
				frames, got.m.Corrupted, got.replies, disabledHearing, peak, worst)
		})
	}
}
