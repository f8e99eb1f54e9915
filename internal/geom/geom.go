// Package geom provides 2-D geometry for wireless network simulation:
// points, plane and torus metrics, uniform random placement, the paper's
// area-scaling rule, and a grid spatial index for range queries.
package geom

import (
	"math"
	"math/rand"
)

// Point is a position in the plane, in meters.
type Point struct {
	X, Y float64
}

// Add returns p translated by v.
func (p Point) Add(v Point) Point { return Point{p.X + v.X, p.Y + v.Y} }

// Sub returns the vector from q to p.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

// Scale returns p scaled by s.
func (p Point) Scale(s float64) Point { return Point{p.X * s, p.Y * s} }

// Norm returns the Euclidean length of p viewed as a vector.
func (p Point) Norm() float64 { return math.Hypot(p.X, p.Y) }

// Dist returns the Euclidean distance between two points in the plane.
func Dist(a, b Point) float64 { return math.Hypot(a.X-b.X, a.Y-b.Y) }

// Dist2 returns the squared Euclidean distance; cheaper when only
// comparisons are needed.
func Dist2(a, b Point) float64 {
	dx, dy := a.X-b.X, a.Y-b.Y
	return dx*dx + dy*dy
}

// Metric measures distance on a surface. The simulator uses the plane (flat
// square, like the paper's simulations); the analytic random-geometric-graph
// model uses the torus (like the paper's theory, footnote 4).
type Metric interface {
	// Dist returns the distance between a and b.
	Dist(a, b Point) float64
	// Dist2 returns the squared distance between a and b.
	Dist2(a, b Point) float64
}

// Plane is the flat Euclidean metric.
type Plane struct{}

// Dist implements Metric.
func (Plane) Dist(a, b Point) float64 { return Dist(a, b) }

// Dist2 implements Metric.
func (Plane) Dist2(a, b Point) float64 { return Dist2(a, b) }

// Torus is the metric on a side×side square with wraparound.
type Torus struct {
	Side float64
}

// Dist implements Metric.
func (t Torus) Dist(a, b Point) float64 { return math.Sqrt(t.Dist2(a, b)) }

// Dist2 implements Metric.
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

// Clamp returns v limited to [lo, hi].
func Clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
