package graph

import (
	"math"
	"math/rand"
	"testing"

	"probquorum/internal/geom"
)

func TestBasicGraphOps(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	if g.N() != 4 {
		t.Fatalf("N = %d", g.N())
	}
	if len(g.adj[1]) != 2 || len(g.adj[3]) != 0 {
		t.Fatal("degrees wrong")
	}
	if g.MaxDegree() != 2 {
		t.Fatalf("MaxDegree = %d", g.MaxDegree())
	}
	if got := meanDegree(g); got != 1.0 {
		t.Fatalf("mean degree = %v", got)
	}
}

// meanDegree is the mean length of g's adjacency lists.
func meanDegree(g *Graph) float64 {
	sum := 0
	for _, l := range g.adj {
		sum += len(l)
	}
	return float64(sum) / float64(len(g.adj))
}

func TestConnectivity(t *testing.T) {
	// Path graph 0-1-2-3.
	g := New(4)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	if !g.Connected() {
		t.Fatal("path graph should be connected")
	}
	g2 := New(3)
	g2.AddEdge(0, 1)
	if g2.Connected() {
		t.Fatal("disconnected graph reported connected")
	}
	if cs := g2.ComponentSize(2); cs != 1 {
		t.Fatalf("ComponentSize(2) = %d", cs)
	}
}

func TestRGGMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	pts := geom.UniformPoints(rng, 150, 1)
	r := 0.13
	g := FromPoints(pts, r, 1)
	want := fromPointsAllPairs(pts, r, 1)
	for v := 0; v < 150; v++ {
		if len(g.adj[v]) != len(want.adj[v]) {
			t.Fatalf("node %d degree %d, brute force %d", v, len(g.adj[v]), len(want.adj[v]))
		}
	}
}

func TestRGGDegreeMatchesDensityTarget(t *testing.T) {
	// Paper scaling: area chosen so that d_avg = πr²n/a².
	rng := rand.New(rand.NewSource(5))
	n, r, davg := 400, 200.0, 10.0
	side := geom.AreaSide(n, r, davg)
	g, _ := NewRGG(rng, n, r, side)
	got := meanDegree(g)
	if math.Abs(got-davg) > 1.5 {
		t.Fatalf("avg degree %v, want ≈%v", got, davg)
	}
}

func TestRGGConnectedAboveThreshold(t *testing.T) {
	// Above the Gupta–Kumar radius sqrt(C·ln n / (π·n)), C > 1, RGGs on the
	// unit square should essentially always connect.
	rng := rand.New(rand.NewSource(6))
	n := 300
	r := math.Sqrt(2 * math.Log(float64(n)) / (math.Pi * float64(n)))
	connected := 0
	for trial := 0; trial < 10; trial++ {
		g, _ := NewRGG(rng, n, r, 1)
		if g.Connected() {
			connected++
		}
	}
	if connected < 8 {
		t.Fatalf("only %d/10 RGGs connected above threshold", connected)
	}
}

func TestSimpleWalkCoversConnectedGraph(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := New(10)
	for i := 0; i < 9; i++ {
		g.AddEdge(i, i+1)
	}
	steps, ok := StepsToCover(g, rng, SimpleWalk, 0, 10, 100000)
	if !ok {
		t.Fatal("walk failed to cover a path graph")
	}
	if steps < 9 {
		t.Fatalf("covered 10 nodes in %d steps (< 9 impossible)", steps)
	}
}

func TestSelfAvoidingBeatsSimple(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	n := 400
	side := geom.AreaSide(n, 200, 10)
	g, _ := NewRGG(rng, n, 200, side)
	target := 2 * int(math.Sqrt(float64(n)))
	var simple, unique int
	const trials = 30
	for i := 0; i < trials; i++ {
		start := rng.Intn(n)
		s, ok := StepsToCover(g, rng, SimpleWalk, start, target, 100000)
		if !ok {
			t.Fatal("simple walk did not finish")
		}
		u, ok := StepsToCover(g, rng, SelfAvoidingWalk, start, target, 100000)
		if !ok {
			t.Fatal("self-avoiding walk did not finish")
		}
		simple += s
		unique += u
	}
	if unique >= simple {
		t.Fatalf("self-avoiding walk (%d steps) not cheaper than simple (%d)", unique, simple)
	}
	// Paper Fig. 4: UNIQUE-PATH almost never revisits for |Q| = O(√n):
	// steps per unique node stays close to 1.
	ratio := float64(unique) / float64(trials*(target-1))
	if ratio > 1.25 {
		t.Fatalf("UNIQUE-PATH steps per unique node = %.2f, want ≈1", ratio)
	}
}

func TestPartialCoverTimeLinearity(t *testing.T) {
	// Theorem 4.1: covering t = o(n) nodes costs O(t) steps. Check the
	// empirical constant at d_avg=10 stays in the paper's ballpark
	// (≈1.7 steps per unique node at √n for all n ≤ 800).
	rng := rand.New(rand.NewSource(9))
	n := 800
	side := geom.AreaSide(n, 200, 10)
	g, _ := NewRGG(rng, n, 200, side)
	target := int(math.Sqrt(float64(n)))
	total := 0
	const trials = 50
	for i := 0; i < trials; i++ {
		s, ok := StepsToCover(g, rng, SimpleWalk, rng.Intn(n), target, 1000000)
		if !ok {
			t.Fatal("walk did not finish")
		}
		total += s
	}
	perUnique := float64(total) / float64(trials*target)
	if perUnique < 1.0 || perUnique > 2.6 {
		t.Fatalf("PCT(√n)/√n = %.2f, want within [1.0, 2.6] (paper: ≈1.7)", perUnique)
	}
}

func TestMaxDegreeWalkUniformity(t *testing.T) {
	// The MD walk's stationary distribution is uniform: sample endpoints
	// should hit low- and high-degree nodes at comparable rates.
	rng := rand.New(rand.NewSource(10))
	n := 100
	side := geom.AreaSide(n, 200, 12)
	g, _ := NewRGG(rng, n, 200, side)
	if !g.Connected() {
		t.Skip("rare disconnected instance")
	}
	counts := make([]int, n)
	const samples = 4000
	for i := 0; i < samples; i++ {
		counts[Sample(g, rng, rng.Intn(n), n)]++
	}
	// Chi-squared-ish check: no node too far from samples/n.
	exp := float64(samples) / float64(n)
	for v, c := range counts {
		if float64(c) > 4*exp || float64(c) < exp/8 {
			t.Fatalf("node %d sampled %d times (expected ≈%.0f): not uniform", v, c, exp)
		}
	}
}

func TestCrossingSteps(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	n := 200
	side := geom.AreaSide(n, 200, 12)
	g, _ := NewRGG(rng, n, 200, side)
	if !g.Connected() {
		t.Skip("rare disconnected instance")
	}
	s, ok := CrossingSteps(g, rng, SimpleWalk, 0, n-1, 1000000)
	if !ok {
		t.Fatal("walks never crossed on a connected graph")
	}
	if s <= 0 {
		t.Fatalf("crossing steps = %d", s)
	}
	// Same start crosses immediately.
	if s0, _ := CrossingSteps(g, rng, SimpleWalk, 5, 5, 10); s0 != 0 {
		t.Fatalf("same-start crossing = %d, want 0", s0)
	}
}

func TestWalkerBookkeeping(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	rng := rand.New(rand.NewSource(12))
	w := NewWalker(g, rng, SimpleWalk, 0)
	if w.Unique() != 1 || !w.Visited(0) || w.Steps() != 0 {
		t.Fatal("initial state wrong")
	}
	w.Step()
	if w.Current() != 1 {
		t.Fatalf("first step from 0 must land on 1, got %d", w.Current())
	}
	if w.Steps() != 1 || w.Unique() != 2 || !w.Visited(1) || w.Visited(2) {
		t.Fatal("bookkeeping after one step wrong")
	}
}

func TestWalkerIsolatedNode(t *testing.T) {
	g := New(2) // no edges
	rng := rand.New(rand.NewSource(13))
	w := NewWalker(g, rng, SimpleWalk, 0)
	if got := w.Step(); got != 0 {
		t.Fatalf("isolated walk moved to %d", got)
	}
	_, ok := StepsToCover(g, rng, SimpleWalk, 0, 2, 100)
	if ok {
		t.Fatal("cover of a disconnected graph should time out")
	}
}
