package phy

import (
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
	m := NewDiskMedium(e, DiskConfig{N: len(pts), Side: 5000, Pos: staticPos(pts)})
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
			if m.Channel(1).Busy() || len(m.radios[1].active) != 0 {
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

// transmitAllocScenario builds a static 60-node medium, warms the event,
// arrival, and candidate-scratch pools, then measures steady-state
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
// rule's far-field grid on: events, arrivals, and end events must all come
// from their pools (DESIGN.md §9).
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
			return NewDiskMedium(e, DiskConfig{N: n, Side: side, Pos: pos})
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
