package phy

import (
	"math"
	"math/rand"
	"testing"

	"probquorum/internal/geom"
	"probquorum/internal/mobility"
	"probquorum/internal/sim"
)

// census counts the indexed transmitters per cell from txCount and the
// per-node cell record — not from the row index or farOcc under test.
func census(f *noiseField) []int {
	c := make([]int, f.cols*f.cols)
	for id, n := range f.txCount {
		if n > 0 {
			c[f.cellOf[id]]++
		}
	}
	return c
}

// oracleFarMw recomputes the far-field aggregate from first principles: the
// census, then a row-major scan of all cells applying the documented rule:
// occupied cells fully outside innerRadius and not beyond intfRange
// contribute count·ReceivedPowerMw(center distance). The scan order is the
// order farMwAt promises, so the two sums are equal to the last bit.
func oracleFarMw(f *noiseField, census []int, p geom.Point) float64 {
	cs := f.cell
	sum := 0.0
	for cy := 0; cy < f.cols; cy++ {
		for cx := 0; cx < f.cols; cx++ {
			count := census[cy*f.cols+cx]
			if count == 0 {
				continue
			}
			x0, y0 := float64(cx)*cs, float64(cy)*cs
			dx := math.Max(math.Max(x0-p.X, p.X-x0-cs), 0)
			dy := math.Max(math.Max(y0-p.Y, p.Y-y0-cs), 0)
			min2 := dx*dx + dy*dy
			if min2 <= f.innerRadius*f.innerRadius || min2 > f.intfRange*f.intfRange {
				continue
			}
			c := geom.Point{X: x0 + cs/2, Y: y0 + cs/2}
			sum += float64(count) * f.d.ReceivedPowerMw(geom.Dist(p, c))
		}
	}
	return sum
}

// oracleFarOcc recounts farOcc from the census by the documented rule, cell
// pair by cell pair rather than through the reach table: a transmitter counts
// at receiver cell r when some point of r has its cell's nearest point
// farther than innerRadius and not beyond intfRange.
func oracleFarOcc(f *noiseField) []int {
	census := census(f)
	occ := make([]int, len(census))
	for t, count := range census {
		for r := range occ {
			ax := math.Abs(float64(t%f.cols - r%f.cols))
			ay := math.Abs(float64(t/f.cols - r/f.cols))
			largest := math.Hypot(ax*f.cell, ay*f.cell)
			smallest := math.Hypot(math.Max(ax-1, 0)*f.cell, math.Max(ay-1, 0)*f.cell)
			if largest > f.innerRadius-reachGuard && smallest <= f.intfRange+reachGuard {
				occ[r] += count
			}
		}
	}
	return occ
}

// onAir is the number of nodes with an outstanding transmission.
func onAir(f *noiseField) int {
	n := 0
	for _, c := range f.txCount {
		if c > 0 {
			n++
		}
	}
	return n
}

// checkNoiseIndex holds the index to the count-based membership invariant:
// rows are strictly ascending in cx with positive counts and hold exactly the
// nodes whose outstanding count is positive, and farOcc equals its recount
// from the census.
func checkNoiseIndex(t *testing.T, step int, f *noiseField) {
	t.Helper()
	for _, c := range f.txCount {
		if c < 0 {
			t.Fatal("negative outstanding-transmission count")
		}
	}
	held := 0
	for cy, row := range f.rows {
		for i, oc := range row {
			if oc.count <= 0 || (i > 0 && row[i-1].cx >= oc.cx) {
				t.Fatalf("step %d: row %d is not ascending occupied cells: %v", step, cy, row)
			}
			held += int(oc.count)
		}
	}
	if transmitting := onAir(f); held != transmitting {
		t.Fatalf("step %d: rows hold %d ids, %d nodes transmitting", step, held, transmitting)
	}
	for c, want := range oracleFarOcc(f) {
		if got := f.farOcc[f.occIndex(c%f.cols, c/f.cols)]; int(got) != want {
			t.Fatalf("step %d: farOcc of cell %d = %d, recount from the census %d", step, c, got, want)
		}
	}
}

// oracleQueries returns the receiver positions one check step asks about:
// uniform points; in every cell its four corners (the far ones a millimetre
// inside, so the point still maps to the cell), its edge midpoints and its
// center — where a receiver is farthest from, or nearest to, the cells
// around it; and one point on each side of the area's boundary.
func oracleQueries(rng *rand.Rand, f *noiseField, side float64) []geom.Point {
	var qs []geom.Point
	for k := 0; k < 8; k++ {
		qs = append(qs, geom.Point{X: rng.Float64() * side, Y: rng.Float64() * side})
	}
	var at []float64
	for c := 0; c < f.cols; c++ {
		x0 := float64(c) * f.cell
		at = append(at, x0, x0+f.cell/2, x0+f.cell-1e-3)
	}
	for _, x := range at {
		for _, y := range at {
			qs = append(qs, geom.Point{X: x, Y: y})
		}
	}
	r := rng.Float64() * side
	return append(qs, geom.Point{X: 0, Y: r}, geom.Point{X: side, Y: r}, geom.Point{X: r, Y: 0}, geom.Point{X: r, Y: side})
}

// TestNoiseFieldOracle property-tests farMwAt against the full-scan oracle
// under random start/end churn — a trickle (at most four on the air over a
// 3 km field, so most cells can hear nobody), sparse (a few dozen), dense
// (≥ 500 concurrent transmitters, several per cell, starts and ends
// interleaved), two 320 m columns (wider than the 307 m inner radius that
// maxSpeed 2 gives, so a receiver at the far edge of its cell hears the cell
// beside it) and a single cell (nothing is ever far) — and checks the
// count-based membership invariant (a node is indexed iff its outstanding
// count is positive) and the farOcc count. The comparison is exact: a
// reordered or regrouped sum, or a reach table missing an offset, must fail.
func TestNoiseFieldOracle(t *testing.T) {
	cases := []struct {
		name      string
		n         int
		side      float64
		startProb float64
		minOnAir  int
	}{
		{"trickle", 4, 3000, 0.3, 0},
		{"sparse", 120, 3000, 0.4, 0},
		{"dense", 1500, 2500, 0.7, 500},
		{"two-columns", 3, 640, 0.3, 0},
		{"one-cell", 8, 400, 0.3, 0},
	}
	for _, tc := range cases {
		rng := rand.New(rand.NewSource(11))
		f := newNoiseField(tc.n, tc.side, DefaultParams().Derived(), 2.0)
		if f.farMwAt(geom.Point{X: tc.side / 2, Y: tc.side / 2}) != 0 {
			t.Fatalf("%s: far field of an idle network is not 0", tc.name)
		}
		peak := 0
		for step := 0; step < 6000; step++ {
			id := rng.Intn(tc.n)
			if f.txCount[id] == 0 || rng.Float64() < tc.startProb {
				f.txStart(id, geom.Point{X: rng.Float64() * tc.side, Y: rng.Float64() * tc.side})
			} else {
				f.txEnd(id)
			}
			peak = max(peak, onAir(f))
			if step%97 != 0 {
				continue
			}
			checkNoiseIndex(t, step, f)
			census := census(f)
			for _, q := range oracleQueries(rng, f, tc.side) {
				if got, want := f.farMwAt(q), oracleFarMw(f, census, q); got != want {
					t.Fatalf("%s step %d: farMwAt(%v) = %g, oracle %g", tc.name, step, q, got, want)
				}
			}
		}
		if peak < tc.minOnAir {
			t.Fatalf("%s: at most %d concurrent transmitters, want ≥ %d", tc.name, peak, tc.minOnAir)
		}
		for id := range f.txCount {
			for f.txCount[id] > 0 {
				f.txEnd(id)
			}
		}
		checkNoiseIndex(t, -1, f)
		for cy, row := range f.rows {
			if len(row) != 0 {
				t.Fatalf("%s: row %d holds %v after all frames ended", tc.name, cy, row)
			}
		}
		for i, occ := range f.farOcc { // the border too, which no recount sees
			if occ != 0 {
				t.Fatalf("%s: farOcc[%d] = %d after all frames ended", tc.name, i, occ)
			}
		}
	}
}

// cellNoiseScenario wires a CellNoise medium with a probe link (tx 150 m
// from rx) and optionally a ring of far interferers at ringDist from the
// receiver — outside the carrier-sense range (so they produce no arrivals)
// but inside the interference range (so only the aggregated far field can
// account for them).
func cellNoiseScenario(t *testing.T, farCount int, ringDist float64) (*SINRMedium, *collector, *sim.Engine) {
	t.Helper()
	const side = 5000.0
	rxPos := geom.Point{X: side / 2, Y: side / 2}
	pts := []geom.Point{rxPos, {X: rxPos.X + 150, Y: rxPos.Y}}
	for i := 0; i < farCount; i++ {
		ang := 2 * math.Pi * float64(i) / float64(farCount)
		pts = append(pts, geom.Point{X: rxPos.X + ringDist*math.Cos(ang), Y: rxPos.Y + ringDist*math.Sin(ang)})
	}
	e := sim.NewEngine(1)
	m := NewSINRMedium(e, SINRConfig{N: len(pts), Side: side, Pos: staticPos(pts), CellNoise: true})
	c := &collector{}
	m.Channel(0).SetHandler(c)

	// Far ring first: long frames that span the probe's whole frame.
	for i := 0; i < farCount; i++ {
		id := 2 + i
		e.Schedule(0, func() {
			m.Channel(id).Transmit(&Frame{Src: id, Dst: Broadcast, Kind: FrameData, Bytes: 1500, Rate: 1e6})
		})
	}
	// Probe inside the far frames.
	e.Schedule(0.001, func() {
		m.Channel(1).Transmit(&Frame{Src: 1, Dst: 0, Kind: FrameData, Bytes: 100, Rate: 2e6})
	})
	return m, c, e
}

// TestCellNoiseFarFieldEntersSINR is the end-to-end check of the aggregated
// model: a clean probe link delivers, and the same link fails once a ring
// of sub-carrier-sense interferers — invisible as arrivals — raises the
// far-field aggregate past the capture margin.
func TestCellNoiseFarFieldEntersSINR(t *testing.T) {
	m, c, e := cellNoiseScenario(t, 0, 0)
	e.Run(1)
	if len(c.frames) != 1 {
		t.Fatalf("clean CellNoise link delivered %d frames, want 1", len(c.frames))
	}

	m, c, e = cellNoiseScenario(t, 80, 400)
	d := m.d
	if d.CarrierSenseRange >= 400 || d.InterferenceRange <= 400 {
		t.Fatalf("ring at 400 m must sit between cs range %.0f and interference range %.0f",
			d.CarrierSenseRange, d.InterferenceRange)
	}
	e.Run(1)
	if len(c.frames) != 0 {
		t.Fatalf("probe delivered despite %d far interferers, want corruption", 80)
	}
	if m.Corrupted == 0 {
		t.Fatal("Corrupted counter did not record the far-field loss")
	}
	// All transmissions have ended: the noise index must have drained.
	if got := onAir(m.noise); got != 0 {
		t.Fatalf("%d nodes still transmitting after all frames ended, want 0", got)
	}
	checkNoiseIndex(t, -1, m.noise)
}

// TestCellNoiseNearFieldNotDoubleCounted pins the inner exclusion: a
// transmitter inside the carrier-sense range is an exact arrival, so the
// far-field aggregate at the receiver must ignore it entirely.
func TestCellNoiseNearFieldNotDoubleCounted(t *testing.T) {
	const side = 5000.0
	pts := []geom.Point{{X: side / 2, Y: side / 2}, {X: side/2 + 200, Y: side / 2}}
	e := sim.NewEngine(1)
	m := NewSINRMedium(e, SINRConfig{N: 2, Side: side, Pos: staticPos(pts), CellNoise: true})
	c := &collector{}
	m.Channel(0).SetHandler(c)

	e.Schedule(0, func() {
		m.Channel(1).Transmit(&Frame{Src: 1, Dst: 0, Kind: FrameData, Bytes: 400, Rate: 2e6})
	})
	e.Schedule(0.0005, func() { // mid-frame
		if far := m.noise.farMwAt(pts[0]); far != 0 {
			t.Errorf("far field at receiver = %g during a near-field-only frame, want 0", far)
		}
		if m.radios[0].nActive != 1 {
			t.Errorf("receiver tracks %d arrivals, want 1 exact near-field arrival", m.radios[0].nActive)
		}
	})
	e.Run(1)
	if len(c.frames) != 1 {
		t.Fatalf("near-field frame delivered %d times, want 1", len(c.frames))
	}
}

// TestSenderOutsideItsReceiversFarField is the oracle of Transmit's order,
// which enters the sender into the far field only after its arrivals have
// begun: for random CellNoise transmissions over a changing population of
// far transmitters, every receiver's far sum with the sender indexed must
// equal, to the bit, the sum without it. It holds because every receiver lies
// within innerRadius of the sender, so the sender's cell is never counted at
// it. On a static field that is the carrier-sense range itself; on a mobile
// one the candidate query pads the range against index staleness, and
// innerRadius carries the matching slop, which the mobile case checks: it
// requires receivers whose true distance from the sender exceeds the
// carrier-sense range.
func TestSenderOutsideItsReceiversFarField(t *testing.T) {
	const (
		n             = 900
		side          = 3000.0
		transmissions = 2500
	)
	for _, tc := range []struct {
		name     string
		maxSpeed float64
	}{{"static", 0}, {"mobile", 25}} {
		t.Run(tc.name, func(t *testing.T) {
			e := sim.NewEngine(5)
			rng := e.NewStream()
			var pos PositionSource = mobility.NewStatic(geom.UniformPoints(rng, n, side))
			if tc.maxSpeed > 0 {
				pos = mobility.NewWaypoint(rng, n, mobility.WaypointConfig{MinSpeed: 1, MaxSpeed: tc.maxSpeed, Side: side}, nil)
			}
			m := NewSINRMedium(e, SINRConfig{N: n, Side: side, Pos: pos, MaxSpeed: tc.maxSpeed, CellNoise: true})
			f := m.noise
			var onAir []int // the far transmitters indexed now
			var receivers, heard, slop int
			for sent := 0; sent < transmissions; {
				e.Run(e.Now() + rng.Float64()*0.2)
				// The population drifts: a transmitter joins or leaves.
				if len(onAir) < 20 || (len(onAir) < 60 && rng.Intn(2) == 0) {
					id := rng.Intn(n)
					f.txStart(id, m.index.pos(id))
					onAir = append(onAir, id)
				} else {
					i := rng.Intn(len(onAir))
					f.txEnd(onAir[i])
					onAir[i] = onAir[len(onAir)-1]
					onAir = onAir[:len(onAir)-1]
				}
				src := rng.Intn(n)
				if f.txCount[src] > 0 {
					continue
				}
				// The receivers Transmit gives an arrival, found as it finds them.
				srcPos := m.index.pos(src)
				var rx []int
				var without []float64
				for _, id := range m.index.Candidates(src, m.candRange) {
					if _, ok := m.signal(geom.Dist(srcPos, m.index.pos(id))); ok && id != src {
						rx = append(rx, id)
						without = append(without, m.FarNoiseMw(id))
					}
				}
				f.txStart(src, srcPos)
				for i, id := range rx {
					with := m.FarNoiseMw(id)
					if math.Float64bits(with) != math.Float64bits(without[i]) {
						t.Fatalf("transmission %d: receiver %d at %.3f m from sender %d hears %g far with the sender indexed, %g without",
							sent, id, geom.Dist(srcPos, m.index.pos(id)), src, with, without[i])
					}
					if with != 0 {
						heard++
					}
					if geom.Dist(srcPos, m.index.pos(id)) > m.d.CarrierSenseRange {
						slop++
					}
				}
				f.txEnd(src)
				receivers += len(rx)
				sent++
			}
			// The sums must be walks, not the zero read, and a mobile field
			// must put receivers in the slop annulus, or equality is hollow.
			if receivers < 20000 || heard < receivers/4 || (tc.maxSpeed > 0 && slop < 50) {
				t.Fatalf("too tame: %d receivers, %d hearing a far field, %d beyond the carrier-sense range", receivers, heard, slop)
			}
			t.Logf("%d receivers, %d hearing a far field, %d beyond the carrier-sense range", receivers, heard, slop)
		})
	}
}
