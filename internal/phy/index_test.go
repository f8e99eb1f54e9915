package phy

import (
	"math"
	"math/rand"
	"testing"

	"probquorum/internal/geom"
	"probquorum/internal/sim"
)

// bouncePos builds a deterministic worst-case mobility pattern: every node
// moves at exactly maxSpeed along its own axis-aligned direction, reflecting
// off the area walls, so any under-padded candidate query has a node to
// miss.
func bouncePos(n int, side, maxSpeed float64, seed int64) func(id int, t float64) geom.Point {
	rng := rand.New(rand.NewSource(seed))
	base := make([]geom.Point, n)
	alongX := make([]bool, n)
	for i := range base {
		base[i] = geom.Point{X: rng.Float64() * side, Y: rng.Float64() * side}
		alongX[i] = rng.Intn(2) == 0
	}
	// reflect maps an unbounded coordinate into [0, side] by folding.
	reflect := func(x float64) float64 {
		period := 2 * side
		x = math.Mod(x, period)
		if x < 0 {
			x += period
		}
		if x > side {
			x = period - x
		}
		return x
	}
	return func(id int, t float64) geom.Point {
		p := base[id]
		if alongX[id] {
			p.X = reflect(p.X + maxSpeed*t)
		} else {
			p.Y = reflect(p.Y + maxSpeed*t)
		}
		return p
	}
}

// posFunc is a PositionSource over a function of node and time.
type posFunc func(id int, t float64) geom.Point

func (f posFunc) Position(id int, t float64) geom.Point { return f(id, t) }

func (f posFunc) Positions(ids []int, t float64, out []geom.Point) []geom.Point {
	for _, id := range ids {
		out = append(out, f(id, t))
	}
	return out
}

// TestCandidatesNeverMissUnderMaxSpeedMobility is the staleness-pad
// regression test: with every node moving at the speed bound and the index
// refreshed incrementally with the measured-elapsed pad, a candidate query
// must still return every enabled node truly within the query radius, at
// any query time and across enable/disable churn.
func TestCandidatesNeverMissUnderMaxSpeedMobility(t *testing.T) {
	const (
		n        = 60
		side     = 1000.0
		maxSpeed = 20.0 // well above the paper's 2 m/s to stress the pad
	)
	truePos := bouncePos(n, side, maxSpeed, 1)
	engine := sim.NewEngine(1)
	w := NewIndex(engine, n, side, 300, posFunc(truePos), maxSpeed)
	rng := rand.New(rand.NewSource(2))

	radii := []float64{120, 300, 670} // the last two: carrier-sense and interference ranges
	for step := 0; step < 400; step++ {
		// Advance by a random span straddling the refresh interval, so
		// queries land both just after and long after refreshes.
		engine.Run(engine.Now() + 0.05 + rng.Float64()*1.6)

		// Churn ~5% of nodes per step.
		for k := 0; k < 3; k++ {
			id := rng.Intn(n)
			w.SetEnabled(id, !w.enabled[id])
		}

		src := rng.Intn(n)
		if !w.enabled[src] {
			w.SetEnabled(src, true)
		}
		radius := radii[step%len(radii)]
		got := w.Candidates(src, radius)
		member := make(map[int]bool, len(got))
		for _, id := range got {
			if !w.enabled[id] {
				t.Fatalf("step %d: candidates returned disabled node %d", step, id)
			}
			member[id] = true
		}
		srcPos := truePos(src, engine.Now())
		for id := 0; id < n; id++ {
			if !w.enabled[id] {
				continue
			}
			if geom.Dist(srcPos, truePos(id, engine.Now())) <= radius && !member[id] {
				t.Fatalf("step %d (t=%.3f): node %d within %.0fm of %d but missing from candidates",
					step, engine.Now(), id, radius, src)
			}
		}
	}
}

// TestWorldPadMeasuresElapsed pins the satellite behavior: right after a
// refresh has re-indexed everything, the pad reflects the measured (small)
// staleness instead of the worst-case full refresh interval.
func TestWorldPadMeasuresElapsed(t *testing.T) {
	const n, side, maxSpeed = 10, 500.0, 2.0
	engine := sim.NewEngine(1)
	w := NewIndex(engine, n, side, 300, posFunc(bouncePos(n, side, maxSpeed, 3)), maxSpeed)

	worst := 2 * maxSpeed * indexRefreshSecs
	// Age everything past the interval, then query: the drain restamps all
	// entries to now, so the measured pad collapses to ~zero while the old
	// formula would still charge the full interval.
	engine.Run(indexRefreshSecs + 0.5)
	w.refreshIfStale()
	if p := w.pad(); p != 0 {
		t.Fatalf("pad just after full drain = %g, want 0", p)
	}
	// Let a fraction of the interval pass: the pad tracks that fraction.
	engine.Run(engine.Now() + 0.25)
	w.refreshIfStale()
	if p := w.pad(); math.Abs(p-2*maxSpeed*0.25) > 1e-9 || p >= worst {
		t.Fatalf("pad after 0.25s = %g, want %g (< worst-case %g)", p, 2*maxSpeed*0.25, worst)
	}
}

// TestWorldRefreshIsIncremental pins that a refresh touches only the stale
// entries, not all n nodes: position queries are counted per node.
func TestWorldRefreshIsIncremental(t *testing.T) {
	const n, side = 50, 1000.0
	engine := sim.NewEngine(1)
	calls := 0
	pos := func(id int, _ float64) geom.Point {
		calls++
		return geom.Point{X: float64(id), Y: float64(id)}
	}
	w := NewIndex(engine, n, side, 300, posFunc(pos), 1.0)
	calls = 0

	// All stamps are 0. Advance past the interval and query: the drain
	// re-indexes all n (plus the query's own source position lookups).
	engine.Run(1.5)
	w.Candidates(0, 100)
	if calls < n {
		t.Fatalf("first stale query re-indexed %d positions, want >= %d", calls, n)
	}
	// A query shortly after must not re-index anyone: only the source
	// position (and no grid churn) is consulted.
	calls = 0
	engine.Run(engine.Now() + 0.1)
	w.Candidates(0, 100)
	if calls > 1 {
		t.Fatalf("fresh query consulted %d positions, want <= 1", calls)
	}
}
