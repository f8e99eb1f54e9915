// Package geom provides 2-D geometry for wireless network simulation:
// points, the plane and torus distances, uniform random placement, the paper's
// area-scaling rule, and a grid spatial index for range queries.
package geom

import (
	"math"
	"math/rand"
	"runtime"
)

// Point is a position in the plane, in meters.
type Point struct {
	X, Y float64
}

// Dist returns the Euclidean distance between two points in the plane,
// math.Hypot(a.X-b.X, a.Y-b.Y) bit for bit.
//
// It spells out the operation sequence of amd64's assembly Hypot,
// max·√(1+(min/max)²), as Go, so the received-power loop calls an ordinary
// register-ABI function instead of the assembly routine through its ABI
// wrapper once per receiver. The magnitudes are ordered as integers — the
// bits of non-negative floats order as the floats do — which compiles to
// conditional moves where a float compare would branch on every other
// receiver; float64(lo*lo) rounds the square on its own, which forbids
// fusing it with the addition (Go spec, "Arithmetic operators"), as the
// assembly does not fuse it. Other architectures call math.Hypot, which
// need not be that sequence there.
func Dist(a, b Point) float64 {
	dx, dy := a.X-b.X, a.Y-b.Y
	if runtime.GOARCH != "amd64" {
		return math.Hypot(dx, dy)
	}
	p := math.Float64bits(dx) &^ (1 << 63)
	q := math.Float64bits(dy) &^ (1 << 63)
	if p < q {
		p, q = q, p
	}
	if p >= infBits { // an infinite or NaN delta: Hypot's special cases
		return math.Hypot(dx, dy)
	}
	if p == 0 {
		return 0
	}
	hi, lo := math.Float64frombits(p), math.Float64frombits(q)
	lo /= hi
	return hi * math.Sqrt(1+float64(lo*lo))
}

// infBits is the bit pattern of +Inf; the bits of a larger magnitude are a
// NaN's.
const infBits = 0x7FF0000000000000

// Dist2 returns the squared Euclidean distance; cheaper when only
// comparisons are needed.
func Dist2(a, b Point) float64 {
	dx, dy := a.X-b.X, a.Y-b.Y
	return dx*dx + dy*dy
}

// Torus is the metric on a side×side square with wraparound: the surface of
// the paper's analytic random-geometric-graph model (footnote 4). The
// simulator itself measures on the flat square with Dist.
type Torus struct {
	Side float64
}

// Dist returns the distance between a and b on the torus.
func (t Torus) Dist(a, b Point) float64 { return math.Sqrt(t.Dist2(a, b)) }

// Dist2 returns the squared distance between a and b on the torus.
func (t Torus) Dist2(a, b Point) float64 {
	dx := wrapDelta(a.X-b.X, t.Side)
	dy := wrapDelta(a.Y-b.Y, t.Side)
	return dx*dx + dy*dy
}

func wrapDelta(d, side float64) float64 {
	d = math.Mod(d, side)
	if d > side/2 {
		d -= side
	} else if d < -side/2 {
		d += side
	}
	return d
}

// AreaSide returns the side length a of the square deployment area that
// yields an average node degree davg for n nodes with transmission range r,
// following the paper's scaling rule a² = πr²n/davg (Section 2.4).
func AreaSide(n int, r, davg float64) float64 {
	return math.Sqrt(math.Pi * r * r * float64(n) / davg)
}

// AvgDegree inverts AreaSide: the expected number of one-hop neighbors for
// n nodes with range r placed uniformly in a side×side square.
func AvgDegree(n int, r, side float64) float64 {
	return math.Pi * r * r * float64(n) / (side * side)
}

// UniformPoints places n points uniformly at random in the side×side square.
func UniformPoints(rng *rand.Rand, n int, side float64) []Point {
	pts := make([]Point, n)
	for i := range pts {
		pts[i] = Point{X: rng.Float64() * side, Y: rng.Float64() * side}
	}
	return pts
}
