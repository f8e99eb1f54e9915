package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDist(t *testing.T) {
	a, b := Point{0, 0}, Point{3, 4}
	if d := Dist(a, b); d != 5 {
		t.Fatalf("Dist = %v, want 5", d)
	}
	if d2 := Dist2(a, b); d2 != 25 {
		t.Fatalf("Dist2 = %v, want 25", d2)
	}
}

// TestDistMatchesHypot holds Dist to math.Hypot of the same deltas bit for
// bit, NaN payload included: 10⁷ random pairs on a 3 000 m field (10⁵ under
// -short), pairs that share a coordinate, coincident points, deltas at
// ±1e300 and in the subnormal range, and ±Inf and NaN coordinates.
func TestDistMatchesHypot(t *testing.T) {
	check := func(a, b Point) {
		t.Helper()
		got, want := Dist(a, b), math.Hypot(a.X-b.X, a.Y-b.Y)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("Dist(%v, %v) = %v (%#x), math.Hypot = %v (%#x)",
				a, b, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	const side = 3000.0
	pairs := 10_000_000
	if testing.Short() {
		pairs = 100_000
	}
	rng := rand.New(rand.NewSource(37))
	for i := 0; i < pairs; i++ {
		a := Point{rng.Float64() * side, rng.Float64() * side}
		b := Point{rng.Float64() * side, rng.Float64() * side}
		check(a, b)
		check(a, Point{a.X, b.Y}) // equal x
		check(a, Point{b.X, a.Y}) // equal y
		if i%1000 == 0 {
			check(a, a)
		}
	}
	sub := math.SmallestNonzeroFloat64
	inf, nan := math.Inf(1), math.NaN()
	edges := []float64{0, math.Copysign(0, -1), 1, -1, 3, 1e300, -1e300, 1.7e308, -1.7e308,
		sub, -sub, 3 * sub, 0x1p-1030, -0x1p-1040, 0x1p-1022, inf, -inf, nan}
	for _, x := range edges {
		for _, y := range edges {
			check(Point{x, y}, Point{})
			check(Point{}, Point{x, y})
			check(Point{x, 0.5}, Point{0.25, y})
		}
	}
	// Deltas of ±1e300 and subnormal size around points of the field.
	for i := 0; i < 1000; i++ {
		a := Point{rng.Float64() * side, rng.Float64() * side}
		for _, d := range []float64{1e300, -1e300, sub, -sub, 7 * sub} {
			check(Point{d, a.Y}, Point{0, a.Y + rng.Float64()})
			check(Point{rng.Float64() * d, rng.Float64() * d}, Point{})
			check(Point{a.X * d, 0}, Point{0, a.Y * d})
		}
	}
}

func TestTorusMetric(t *testing.T) {
	m := Torus{Side: 10}
	// Points near opposite edges are close on the torus.
	if d := m.Dist(Point{0.5, 5}, Point{9.5, 5}); math.Abs(d-1) > 1e-12 {
		t.Fatalf("torus wrap x: %v, want 1", d)
	}
	if d := m.Dist(Point{5, 0.5}, Point{5, 9.5}); math.Abs(d-1) > 1e-12 {
		t.Fatalf("torus wrap y: %v, want 1", d)
	}
	// Interior distances match the plane.
	a, b := Point{2, 2}, Point{3, 4}
	if d := m.Dist(a, b); math.Abs(d-Dist(a, b)) > 1e-12 {
		t.Fatalf("torus interior: %v, want %v", d, Dist(a, b))
	}
}

func TestTorusMetricProperties(t *testing.T) {
	m := Torus{Side: 1}
	rng := rand.New(rand.NewSource(5))
	f := func() bool {
		a := Point{rng.Float64(), rng.Float64()}
		b := Point{rng.Float64(), rng.Float64()}
		d := m.Dist(a, b)
		// symmetry, bound by half-diagonal, never exceeds plane distance
		return math.Abs(d-m.Dist(b, a)) < 1e-12 &&
			d <= math.Sqrt2/2+1e-12 &&
			d <= Dist(a, b)+1e-12
	}
	for i := 0; i < 500; i++ {
		if !f() {
			t.Fatal("torus metric property violated")
		}
	}
}

func TestAreaSideMatchesPaper(t *testing.T) {
	// The paper scales area so d_avg = πr²n/a². Round-trip must hold.
	for _, n := range []int{50, 100, 200, 400, 800} {
		for _, davg := range []float64{7, 10, 15, 20, 25} {
			side := AreaSide(n, 200, davg)
			got := AvgDegree(n, 200, side)
			if math.Abs(got-davg) > 1e-9 {
				t.Fatalf("n=%d davg=%v: round-trip %v", n, davg, got)
			}
		}
	}
	// Sanity: 800 nodes at d_avg=10 with r=200m needs ~3.17km side.
	side := AreaSide(800, 200, 10)
	if side < 3000 || side > 3300 {
		t.Fatalf("side for n=800 = %v, want ≈3170", side)
	}
}

func TestUniformPoints(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pts := UniformPoints(rng, 1000, 50)
	if len(pts) != 1000 {
		t.Fatalf("got %d points", len(pts))
	}
	var cx, cy float64
	for _, p := range pts {
		if p.X < 0 || p.X >= 50 || p.Y < 0 || p.Y >= 50 {
			t.Fatalf("point out of area: %v", p)
		}
		cx += p.X
		cy += p.Y
	}
	cx /= 1000
	cy /= 1000
	if math.Abs(cx-25) > 2 || math.Abs(cy-25) > 2 {
		t.Fatalf("centroid (%v,%v) far from (25,25)", cx, cy)
	}
}

func TestGridBasic(t *testing.T) {
	g := NewGrid(10, 100, 10)
	for i := 0; i < 10; i++ {
		g.Update(i, Point{float64(i * 10), 50})
	}
	got := g.Within(Point{0, 50}, 25, nil)
	want := map[int]bool{0: true, 1: true, 2: true}
	if len(got) != len(want) {
		t.Fatalf("Within returned %v", got)
	}
	for _, id := range got {
		if !want[id] {
			t.Fatalf("unexpected id %d in %v", id, got)
		}
	}
}

func TestGridUpdateMoves(t *testing.T) {
	g := NewGrid(2, 100, 10)
	g.Update(0, Point{5, 5})
	g.Update(1, Point{95, 95})
	g.Update(0, Point{90, 90}) // move across cells
	got := g.Within(Point{95, 95}, 10, nil)
	if len(got) != 2 {
		t.Fatalf("after move, Within = %v, want both ids", got)
	}
	got = g.Within(Point{5, 5}, 10, nil)
	if len(got) != 0 {
		t.Fatalf("stale entry left behind: %v", got)
	}
}

func TestGridRemove(t *testing.T) {
	g := NewGrid(3, 100, 10)
	g.Update(0, Point{10, 10})
	g.Update(1, Point{12, 12})
	g.Update(2, Point{14, 14})
	g.Remove(1)
	got := g.Within(Point{12, 12}, 50, nil)
	if len(got) != 2 {
		t.Fatalf("after remove, Within = %v", got)
	}
	for _, id := range got {
		if id == 1 {
			t.Fatal("removed id still returned")
		}
	}
	if g.count() != 2 {
		t.Fatalf("Count = %d, want 2", g.count())
	}
	g.Remove(1) // double remove is a no-op
	if g.count() != 2 {
		t.Fatal("double Remove changed count")
	}
}

func TestGridMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	const n = 300
	const side = 1000.0
	g := NewGrid(n, side, 120)
	pts := UniformPoints(rng, n, side)
	for i, p := range pts {
		g.Update(i, p)
	}
	f := func(qx, qy, r float64) bool {
		q := Point{math.Abs(math.Mod(qx, side)), math.Abs(math.Mod(qy, side))}
		radius := math.Abs(math.Mod(r, side/2))
		got := g.Within(q, radius, nil)
		seen := make(map[int]bool, len(got))
		for _, id := range got {
			seen[id] = true
		}
		count := 0
		for i, p := range pts {
			in := Dist(p, q) <= radius
			if in {
				count++
			}
			if in != seen[i] {
				return false
			}
		}
		return count == len(got)
	}
	cfg := &quick.Config{MaxCount: 100, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestGridBoundaryPoints(t *testing.T) {
	// Points exactly on the area boundary must be indexed, not lost.
	g := NewGrid(4, 100, 10)
	g.Update(0, Point{100, 100})
	g.Update(1, Point{0, 0})
	g.Update(2, Point{100, 0})
	g.Update(3, Point{0, 100})
	if got := g.Within(Point{100, 100}, 1, nil); len(got) != 1 || got[0] != 0 {
		t.Fatalf("corner point lost: %v", got)
	}
	if g.count() != 4 {
		t.Fatalf("Count = %d", g.count())
	}
}

func TestGridMaxQueryRadius(t *testing.T) {
	const n = 50
	const side = 100.0
	g := NewGrid(n, side, 10)
	if got, want := g.maxQueryRadius(), side*math.Sqrt2; got != want {
		t.Fatalf("maxQueryRadius = %g, want area diameter %g", got, want)
	}
	// At the area diameter, a query from any in-area point — including the
	// far corner — must return every indexed id: it is the "no radius
	// limit" sentinel.
	rng := rand.New(rand.NewSource(4))
	for i, p := range UniformPoints(rng, n, side) {
		g.Update(i, p)
	}
	for _, from := range []Point{{0, 0}, {side, side}, {side / 2, side / 2}, {0, side}} {
		if got := g.Within(from, g.maxQueryRadius(), nil); len(got) != n {
			t.Fatalf("Within(%v, maxQueryRadius) = %d ids, want all %d", from, len(got), n)
		}
	}
}
