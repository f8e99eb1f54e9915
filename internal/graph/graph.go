// Package graph provides the random-geometric-graph (RGG) toolkit behind
// the paper's random-walk theory: G²(n,r) construction on the torus,
// connectivity utilities, and the three walk flavours
// the paper studies — simple random walks (PATH), self-avoiding walks
// (UNIQUE-PATH), and maximum-degree walks (uniform sampling for RANDOM).
//
// The partial-cover-time and crossing-time measurement helpers regenerate
// the empirical study of Section 4.2 (Fig. 4) and validate Theorem 4.1 and
// Theorem 5.5.
package graph

import (
	"math/rand"

	"probquorum/internal/geom"
)

// Graph is an undirected graph over nodes 0..n-1.
type Graph struct {
	adj [][]int32
}

// New creates an empty graph with n nodes.
func New(n int) *Graph { return &Graph{adj: make([][]int32, n)} }

// N returns the node count.
func (g *Graph) N() int { return len(g.adj) }

// AddEdge connects u and v (no self-loops, duplicates not checked).
func (g *Graph) AddEdge(u, v int) {
	g.adj[u] = append(g.adj[u], int32(v))
	g.adj[v] = append(g.adj[v], int32(u))
}

// Degree returns the degree of v.
func (g *Graph) Degree(v int) int { return len(g.adj[v]) }

// Neighbors returns v's adjacency list (not a copy; do not modify).
func (g *Graph) Neighbors(v int) []int32 { return g.adj[v] }

// MaxDegree returns the largest degree in the graph.
func (g *Graph) MaxDegree() int {
	maxDeg := 0
	for v := range g.adj {
		if d := len(g.adj[v]); d > maxDeg {
			maxDeg = d
		}
	}
	return maxDeg
}

// AvgDegree returns the mean degree.
func (g *Graph) AvgDegree() float64 {
	sum := 0
	for v := range g.adj {
		sum += len(g.adj[v])
	}
	return float64(sum) / float64(len(g.adj))
}

// NewRGG builds a random geometric graph G²(n,r): n nodes placed uniformly
// at random in a side×side square, connected when within distance r on the
// torus of that side (the paper's analytic model, footnote 4). It returns the
// graph and the positions.
func NewRGG(rng *rand.Rand, n int, r, side float64) (*Graph, []geom.Point) {
	pts := geom.UniformPoints(rng, n, side)
	g := FromPoints(pts, r, side)
	return g, pts
}

// FromPoints builds the geometric graph over fixed positions on the torus of
// side side. A grid-bucketed pair search keeps construction near O(n) for the
// sparse regimes the paper uses.
func FromPoints(pts []geom.Point, r, side float64) *Graph {
	cols := int(side / r)
	if cols < 3 {
		// Too few cells to wrap cleanly: fall back to all pairs.
		return fromPointsAllPairs(pts, r, side)
	}
	g := New(len(pts))
	torus := geom.Torus{Side: side}
	cell := side / float64(cols)
	buckets := make([][]int32, cols*cols)
	idx := func(p geom.Point) (int, int) {
		cx := int(p.X / cell)
		cy := int(p.Y / cell)
		if cx >= cols {
			cx = cols - 1
		}
		if cy >= cols {
			cy = cols - 1
		}
		return cx, cy
	}
	for i, p := range pts {
		cx, cy := idx(p)
		buckets[cy*cols+cx] = append(buckets[cy*cols+cx], int32(i))
	}
	r2 := r * r
	for i, p := range pts {
		cx, cy := idx(p)
		for dx := -1; dx <= 1; dx++ {
			for dy := -1; dy <= 1; dy++ {
				bx := ((cx+dx)%cols + cols) % cols
				by := ((cy+dy)%cols + cols) % cols
				for _, j := range buckets[by*cols+bx] {
					if int(j) <= i {
						continue
					}
					if torus.Dist2(p, pts[j]) <= r2 {
						g.AddEdge(i, int(j))
					}
				}
			}
		}
	}
	return g
}

func fromPointsAllPairs(pts []geom.Point, r, side float64) *Graph {
	g := New(len(pts))
	torus := geom.Torus{Side: side}
	r2 := r * r
	for i := range pts {
		for j := i + 1; j < len(pts); j++ {
			if torus.Dist2(pts[i], pts[j]) <= r2 {
				g.AddEdge(i, j)
			}
		}
	}
	return g
}

// Connected reports whether the graph is a single connected component.
func (g *Graph) Connected() bool { return g.ComponentSize(0) == g.N() }

// ComponentSize returns the size of start's connected component.
func (g *Graph) ComponentSize(start int) int {
	if g.N() == 0 {
		return 0
	}
	seen := make([]bool, g.N())
	queue := []int32{int32(start)}
	seen[start] = true
	count := 0
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		count++
		for _, u := range g.adj[v] {
			if !seen[u] {
				seen[u] = true
				queue = append(queue, u)
			}
		}
	}
	return count
}
