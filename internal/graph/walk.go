package graph

import "math/rand"

// WalkKind selects the random walk flavour.
type WalkKind int

// Walk kinds matching the paper's access strategies.
const (
	// SimpleWalk moves to a uniformly random neighbor each step (PATH).
	SimpleWalk WalkKind = iota + 1
	// SelfAvoidingWalk prefers unvisited neighbors, falling back to a
	// uniformly random neighbor when all have been visited (UNIQUE-PATH,
	// Section 4.3).
	SelfAvoidingWalk
	// MaxDegreeWalk is the Maximum Degree random walk used for uniform
	// sampling (RaWMS): from v it moves to each neighbor with probability
	// 1/d_max and stays put otherwise, making the stationary distribution
	// uniform.
	MaxDegreeWalk
)

// Walker advances a random walk over a graph.
type Walker struct {
	g       *Graph
	rng     *rand.Rand
	kind    WalkKind
	cur     int
	maxDeg  int
	visited map[int]bool
	steps   int
}

// NewWalker starts a walk of the given kind at node start.
func NewWalker(g *Graph, rng *rand.Rand, kind WalkKind, start int) *Walker {
	w := &Walker{
		g: g, rng: rng, kind: kind, cur: start,
		visited: map[int]bool{start: true},
	}
	if kind == MaxDegreeWalk {
		w.maxDeg = g.MaxDegree()
	}
	return w
}

// Current returns the walk's position.
func (w *Walker) Current() int { return w.cur }

// Steps returns how many steps have been taken.
func (w *Walker) Steps() int { return w.steps }

// Unique returns how many distinct nodes have been visited (including the
// start).
func (w *Walker) Unique() int { return len(w.visited) }

// Visited reports whether the walk has touched v.
func (w *Walker) Visited(v int) bool { return w.visited[v] }

// Step advances one step and returns the new position. On an isolated node
// the walk stays put.
func (w *Walker) Step() int {
	nbs := w.g.Neighbors(w.cur)
	if len(nbs) == 0 {
		w.steps++
		return w.cur
	}
	var next int
	switch w.kind {
	case SimpleWalk:
		next = int(nbs[w.rng.Intn(len(nbs))])
	case SelfAvoidingWalk:
		next = w.selfAvoidingNext(nbs)
	case MaxDegreeWalk:
		// Move to a uniformly chosen neighbor slot out of maxDeg; the
		// remaining probability mass is a self-loop.
		slot := w.rng.Intn(w.maxDeg)
		if slot < len(nbs) {
			next = int(nbs[slot])
		} else {
			next = w.cur
		}
	default:
		panic("graph: unknown walk kind")
	}
	w.cur = next
	w.steps++
	w.visited[next] = true
	return next
}

// selfAvoidingNext picks a uniformly random unvisited neighbor, or a
// uniformly random neighbor when all are visited ("in a rare event that all
// the neighbors ... have been visited ... an arbitrary random neighbor is
// chosen", Section 4.3).
func (w *Walker) selfAvoidingNext(nbs []int32) int {
	unvisited := 0
	for _, u := range nbs {
		if !w.visited[int(u)] {
			unvisited++
		}
	}
	if unvisited == 0 {
		return int(nbs[w.rng.Intn(len(nbs))])
	}
	k := w.rng.Intn(unvisited)
	for _, u := range nbs {
		if !w.visited[int(u)] {
			if k == 0 {
				return int(u)
			}
			k--
		}
	}
	panic("unreachable")
}

// StepsToCover runs a walk from start until it has visited target distinct
// nodes (or maxSteps elapse) and returns the number of steps taken and
// whether the target was reached. This measures the paper's partial cover
// time PCT(target).
func StepsToCover(g *Graph, rng *rand.Rand, kind WalkKind, start, target, maxSteps int) (steps int, ok bool) {
	w := NewWalker(g, rng, kind, start)
	for w.Unique() < target {
		if w.Steps() >= maxSteps {
			return w.Steps(), false
		}
		w.Step()
	}
	return w.Steps(), true
}

// CrossingSteps advances two walks of the given kind in lockstep from u and
// v until their visited sets intersect (Definition 5.4's crossing time) or
// maxSteps elapse. It returns the step count at which they first crossed.
func CrossingSteps(g *Graph, rng *rand.Rand, kind WalkKind, u, v, maxSteps int) (steps int, ok bool) {
	wu := NewWalker(g, rng, kind, u)
	wv := NewWalker(g, rng, kind, v)
	if wu.Visited(v) || u == v {
		return 0, true
	}
	for s := 1; s <= maxSteps; s++ {
		a := wu.Step()
		if wv.Visited(a) {
			return s, true
		}
		b := wv.Step()
		if wu.Visited(b) {
			return s, true
		}
	}
	return maxSteps, false
}

// Sample returns the endpoint of a max-degree walk of the given length from
// start — one near-uniform node sample (the RaWMS sampling primitive). The
// paper uses walk lengths around the mixing time ≈ n/2 for G²(n,r).
func Sample(g *Graph, rng *rand.Rand, start, length int) int {
	w := NewWalker(g, rng, MaxDegreeWalk, start)
	for i := 0; i < length; i++ {
		w.Step()
	}
	return w.Current()
}
