package phy

import (
	"math"
	"testing"

	"probquorum/internal/geom"
	"probquorum/internal/sim"
)

func TestDBmConversion(t *testing.T) {
	cases := []struct{ dbm, mw float64 }{
		{0, 1}, {10, 10}, {15, 31.6227766}, {-71, 7.9433e-8}, {-101, 7.9433e-11},
	}
	for _, c := range cases {
		if got := DBmToMilliwatt(c.dbm); math.Abs(got-c.mw)/c.mw > 1e-4 {
			t.Fatalf("DBmToMilliwatt(%v) = %v, want %v", c.dbm, got, c.mw)
		}
	}
}

func TestPaperRanges(t *testing.T) {
	// The paper's Fig. 2 states a 200 m ideal reception range and a 299 m
	// carrier-sensing range for the default radio.
	p := DefaultParams()
	rx := p.ReceptionRange()
	if rx < 195 || rx > 215 {
		t.Fatalf("reception range %v, want ≈200–213 m", rx)
	}
	cs := p.CarrierSenseRange()
	if cs < 294 || cs > 304 {
		t.Fatalf("carrier-sense range %v, want ≈299 m", cs)
	}
	if ir := p.InterferenceRange(); ir <= cs {
		t.Fatalf("interference range %v should exceed carrier-sense range %v", ir, cs)
	}
}

func TestReceivedPowerMonotone(t *testing.T) {
	p := DefaultParams()
	prev := math.Inf(1)
	for d := 1.0; d < 2000; d += 7 {
		pw := p.ReceivedPowerMw(d)
		if pw > prev {
			t.Fatalf("received power not monotone at d=%v", d)
		}
		prev = pw
	}
	// Continuity at the crossover distance.
	dc := p.CrossoverDist()
	lo := p.ReceivedPowerMw(dc * 0.999)
	hi := p.ReceivedPowerMw(dc * 1.001)
	if math.Abs(lo-hi)/lo > 0.05 {
		t.Fatalf("discontinuity at crossover: %v vs %v", lo, hi)
	}
}

func TestFrameAirTime(t *testing.T) {
	f := &Frame{Bytes: 550, Rate: 11e6}
	got := f.AirTime()
	want := 192e-6 + 550*8/11e6
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("AirTime = %v, want %v", got, want)
	}
}

func TestSINRDelivery(t *testing.T) {
	e := sim.NewEngine(1)
	pts := []geom.Point{{X: 0, Y: 0}, {X: 150, Y: 0}, {X: 1000, Y: 0}}
	m, cs := newTestSINR(e, pts)
	f := &Frame{Src: 0, Dst: Broadcast, Kind: FrameData, Bytes: 100, Rate: 2e6}
	e.Schedule(0, func() { m.Channel(0).Transmit(f) })
	e.Run(1)
	if len(cs[1].frames) != 1 {
		t.Fatalf("in-range node got %d frames, want 1", len(cs[1].frames))
	}
	if len(cs[2].frames) != 0 {
		t.Fatalf("far node got %d frames, want 0", len(cs[2].frames))
	}
	if len(cs[0].frames) != 0 {
		t.Fatal("transmitter received its own frame")
	}
}

func TestSINRCollision(t *testing.T) {
	e := sim.NewEngine(1)
	// Receiver in the middle of two equal-power transmitters: SINR ≈ 1 < 10.
	pts := []geom.Point{{X: 0, Y: 0}, {X: 150, Y: 0}, {X: 300, Y: 0}}
	m, cs := newTestSINR(e, pts)
	fa := &Frame{Src: 0, Dst: Broadcast, Bytes: 100, Rate: 2e6}
	fb := &Frame{Src: 2, Dst: Broadcast, Bytes: 100, Rate: 2e6}
	e.Schedule(0, func() { m.Channel(0).Transmit(fa) })
	e.Schedule(0.0001, func() { m.Channel(2).Transmit(fb) }) // overlaps fa
	e.Run(1)
	if len(cs[1].frames) != 0 {
		t.Fatalf("middle node decoded %d frames through a collision", len(cs[1].frames))
	}
}

func TestSINRCapture(t *testing.T) {
	e := sim.NewEngine(1)
	// Strong nearby signal (50 m) vs weak far interferer (1 km): SINR far
	// above β=10 → capture succeeds despite the overlap.
	pts := []geom.Point{{X: 0, Y: 0}, {X: 50, Y: 0}, {X: 1050, Y: 0}}
	m, cs := newTestSINR(e, pts)
	fa := &Frame{Src: 0, Dst: Broadcast, Bytes: 100, Rate: 2e6}
	fb := &Frame{Src: 2, Dst: Broadcast, Bytes: 100, Rate: 2e6}
	e.Schedule(0, func() { m.Channel(0).Transmit(fa) })
	e.Schedule(0.00005, func() { m.Channel(2).Transmit(fb) })
	e.Run(1)
	if len(cs[1].frames) != 1 {
		t.Fatalf("capture failed: node 1 got %d frames", len(cs[1].frames))
	}
}

func TestMobileMediumUsesFreshPositions(t *testing.T) {
	// A node that starts far away but is close at transmit time must
	// receive, even with grid staleness.
	e := sim.NewEngine(1)
	// Node 1 moves from (1000,0) toward the origin at 20 m/s, to a stop at
	// 50 m.
	approach := func(id int, t float64) geom.Point {
		if id == 0 {
			return geom.Point{X: 0, Y: 0}
		}
		return geom.Point{X: math.Max(1000-20*t, 50), Y: 0}
	}
	m := NewSINRMedium(e, SINRConfig{N: 2, Side: 2000, Pos: posFunc(approach), MaxSpeed: 20})
	c := &collector{}
	m.Channel(1).SetHandler(c)
	f := &Frame{Src: 0, Dst: Broadcast, Bytes: 100, Rate: 2e6}
	e.Schedule(60, func() { m.Channel(0).Transmit(f) }) // node 1 now at 50 m
	e.Run(100)
	if len(c.frames) != 1 {
		t.Fatal("mobile node at close range missed the frame (stale index?)")
	}
}

func TestSINRCumulativeInterference(t *testing.T) {
	// One far interferer does not break reception, but several of them
	// accumulate past the capture threshold — the "cumulative noise"
	// behaviour that distinguishes the additive model from the protocol
	// model.
	run := func(interferers int) bool {
		e := sim.NewEngine(1)
		pts := []geom.Point{{X: 0, Y: 0}, {X: 170, Y: 0}}
		for i := 0; i < 8; i++ {
			// Ring of potential interferers ~500 m from the receiver.
			angle := float64(i) * math.Pi / 4
			pts = append(pts, geom.Point{
				X: 170 + 500*math.Cos(angle),
				Y: 500 * math.Sin(angle),
			})
		}
		m, cs := newTestSINR(e, pts)
		e.Schedule(0, func() {
			m.Channel(0).Transmit(&Frame{Src: 0, Dst: Broadcast, Bytes: 400, Rate: 2e6})
		})
		for i := 0; i < interferers; i++ {
			id := 2 + i
			e.Schedule(0.0002, func() {
				m.Channel(id).Transmit(&Frame{Src: id, Dst: Broadcast, Bytes: 400, Rate: 2e6})
			})
		}
		e.Run(1)
		return len(cs[1].frames) == 1
	}
	if !run(0) {
		t.Fatal("clean reception failed")
	}
	if !run(1) {
		t.Fatal("a single distant interferer should not break a strong signal")
	}
	if run(8) {
		t.Fatal("eight simultaneous interferers should accumulate past beta")
	}
}

func TestSINRCarrierFromAggregate(t *testing.T) {
	// Two transmitters each below the carrier-sense threshold at the
	// listener can still sum above it (additive carrier sensing).
	e := sim.NewEngine(1)
	p := DefaultParams()
	// Place two transmitters just beyond CS range (sensed power just
	// under threshold each) on opposite sides of the listener.
	d := p.CarrierSenseRange() * 1.05
	pts := []geom.Point{{X: 0, Y: 0}, {X: d, Y: 0}, {X: -d, Y: 0}}
	m, _ := newTestSINR(e, []geom.Point{pts[1], pts[2], pts[0]}) // listener is id 2
	busyOne, busyTwo := false, false
	e.Schedule(0, func() {
		m.Channel(0).Transmit(&Frame{Src: 0, Dst: Broadcast, Bytes: 512, Rate: 2e6})
	})
	e.Schedule(0.0002, func() { busyOne = m.Channel(2).Busy() })
	e.Schedule(0.0004, func() {
		m.Channel(1).Transmit(&Frame{Src: 1, Dst: Broadcast, Bytes: 512, Rate: 2e6})
	})
	e.Schedule(0.0006, func() { busyTwo = m.Channel(2).Busy() })
	e.Run(1)
	if busyOne {
		t.Fatal("one sub-threshold signal should not trigger carrier sense")
	}
	if !busyTwo {
		t.Fatal("two sub-threshold signals should aggregate above the CS threshold")
	}
}

func TestInterferenceRangeOrdering(t *testing.T) {
	p := DefaultParams()
	if !(p.ReceptionRange() < p.CarrierSenseRange() &&
		p.CarrierSenseRange() < p.InterferenceRange()) {
		t.Fatalf("range ordering broken: rx=%v cs=%v intf=%v",
			p.ReceptionRange(), p.CarrierSenseRange(), p.InterferenceRange())
	}
}

// TestDerivedReceivedPowerBitIdentical pins the Derived cache's received
// power to the exact bits of the Params method across both path-loss
// branches and several radio configurations: the cache must hoist only
// constant subexpressions, never regroup per-distance arithmetic.
func TestDerivedReceivedPowerBitIdentical(t *testing.T) {
	params := []Params{
		DefaultParams(),
		{TxPowerDBm: 20, RxThreshDBm: -65, CsThreshDBm: -70, NoiseDBm: -95,
			SINRCapture: 6, InterferenceCutoffDBm: -85, AntennaHeightM: 2.5,
			FrequencyHz: 2.4e9, AntennaGain: 1.4, SystemLoss: 1.3},
	}
	for _, p := range params {
		d := p.Derived()
		for _, dist := range []float64{0, 1e-12, 0.5, 1, 10, 50, 100,
			d.CrossoverDist * 0.999, d.CrossoverDist, d.CrossoverDist * 1.001,
			200, 299, 500, 1000, 5000} {
			want := p.ReceivedPowerMw(dist)
			got := d.ReceivedPowerMw(dist)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("Derived.ReceivedPowerMw(%v) = %v (%x), Params gives %v (%x)",
					dist, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
		checks := []struct {
			name      string
			got, want float64
		}{
			{"TxPowerMw", d.TxPowerMw, DBmToMilliwatt(p.TxPowerDBm)},
			{"RxThreshMw", d.RxThreshMw, DBmToMilliwatt(p.RxThreshDBm)},
			{"CsThreshMw", d.CsThreshMw, DBmToMilliwatt(p.CsThreshDBm)},
			{"NoiseMw", d.NoiseMw, DBmToMilliwatt(p.NoiseDBm)},
			{"CutoffMw", d.CutoffMw, DBmToMilliwatt(p.InterferenceCutoffDBm)},
			{"CrossoverDist", d.CrossoverDist, p.CrossoverDist()},
			{"ReceptionRange", d.ReceptionRange, p.ReceptionRange()},
			{"CarrierSenseRange", d.CarrierSenseRange, p.CarrierSenseRange()},
			{"InterferenceRange", d.InterferenceRange, p.InterferenceRange()},
		}
		for _, c := range checks {
			if math.Float64bits(c.got) != math.Float64bits(c.want) {
				t.Fatalf("Derived.%s = %v, Params gives %v", c.name, c.got, c.want)
			}
		}
	}
}
