package mobility

import (
	"math"
	"math/rand"
	"testing"

	"probquorum/internal/geom"
)

func TestStatic(t *testing.T) {
	pts := []geom.Point{{X: 1, Y: 2}, {X: 3, Y: 4}}
	m := NewStatic(pts)
	pts[0] = geom.Point{X: 9, Y: 9} // model must have copied
	if got := m.Position(0, 100); got != (geom.Point{X: 1, Y: 2}) {
		t.Fatalf("Position(0) = %v", got)
	}
	if m.MaxSpeed() != 0 {
		t.Fatal("static MaxSpeed should be 0")
	}
}

func defaultWaypoint(seed int64, n int) *Waypoint {
	rng := rand.New(rand.NewSource(seed))
	return NewWaypoint(rng, n, WaypointConfig{
		MinSpeed: 0.5, MaxSpeed: 2, Pause: 30, Side: 1000,
	}, nil)
}

func TestWaypointStaysInArea(t *testing.T) {
	w := defaultWaypoint(1, 20)
	for id := 0; id < 20; id++ {
		for ti := 0; ti <= 2000; ti += 7 {
			p := w.Position(id, float64(ti))
			if p.X < 0 || p.X > 1000 || p.Y < 0 || p.Y > 1000 {
				t.Fatalf("node %d left area at t=%d: %v", id, ti, p)
			}
		}
	}
}

func TestWaypointSpeedBound(t *testing.T) {
	w := defaultWaypoint(2, 10)
	const dt = 0.5
	for id := 0; id < 10; id++ {
		prev := w.Position(id, 0)
		for ti := dt; ti < 500; ti += dt {
			cur := w.Position(id, ti)
			speed := geom.Dist(prev, cur) / dt
			if speed > w.MaxSpeed()+1e-9 {
				t.Fatalf("node %d moved at %v m/s > max %v", id, speed, w.MaxSpeed())
			}
			prev = cur
		}
	}
}

func TestWaypointContinuity(t *testing.T) {
	w := defaultWaypoint(3, 5)
	for id := 0; id < 5; id++ {
		prev := w.Position(id, 0)
		for ti := 0.01; ti < 300; ti += 0.01 {
			cur := w.Position(id, ti)
			if geom.Dist(prev, cur) > w.MaxSpeed()*0.01+1e-9 {
				t.Fatalf("discontinuity for node %d at t=%v", id, ti)
			}
			prev = cur
		}
	}
}

func TestWaypointActuallyMoves(t *testing.T) {
	w := defaultWaypoint(4, 10)
	moved := 0
	for id := 0; id < 10; id++ {
		a := w.Position(id, 0)
		b := w.Position(id, 600)
		if geom.Dist(a, b) > 1 {
			moved++
		}
	}
	if moved < 8 {
		t.Fatalf("only %d/10 nodes moved over 600s", moved)
	}
}

func TestWaypointDeterminism(t *testing.T) {
	a := defaultWaypoint(5, 10)
	b := defaultWaypoint(5, 10)
	for id := 0; id < 10; id++ {
		for ti := 0.0; ti < 400; ti += 13.7 {
			pa, pb := a.Position(id, ti), b.Position(id, ti)
			if pa != pb {
				t.Fatalf("same-seed models diverge: node %d t=%v: %v vs %v", id, ti, pa, pb)
			}
		}
	}
}

func TestWaypointPauseRespected(t *testing.T) {
	// With a huge pause, the node should sit still at its start initially.
	rng := rand.New(rand.NewSource(6))
	start := []geom.Point{{X: 100, Y: 100}}
	w := NewWaypoint(rng, 1, WaypointConfig{MinSpeed: 1, MaxSpeed: 1, Pause: 1e6, Side: 1000}, start)
	if got := w.Position(0, 1000); got != (geom.Point{X: 100, Y: 100}) {
		t.Fatalf("node moved during pause: %v", got)
	}
}

func TestWaypointZeroPause(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	w := NewWaypoint(rng, 3, WaypointConfig{MinSpeed: 1, MaxSpeed: 2, Pause: 0, Side: 100}, nil)
	// Just exercise long-horizon leg generation without pause.
	for id := 0; id < 3; id++ {
		p := w.Position(id, 5000)
		if math.IsNaN(p.X) || math.IsNaN(p.Y) {
			t.Fatal("NaN position")
		}
	}
}

func TestWaypointRejectsBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for zero MinSpeed")
		}
	}()
	rng := rand.New(rand.NewSource(8))
	NewWaypoint(rng, 1, WaypointConfig{MinSpeed: 0, MaxSpeed: 2, Side: 100}, nil)
}

// TestPositionsMatchPosition is the oracle of the batched read: one model
// answers Positions for a random subset of ids (in random order, the subset
// growing a fresh prefix onto a reused buffer) at each of a nondecreasing
// sequence of times, some repeated, its twin answers Position per id at the
// same times, and every point must be bit-equal. The waypoint field is small
// and the pause short, so legs end between most queries; the test requires
// that the batched calls advanced every node across several leg boundaries.
func TestPositionsMatchPosition(t *testing.T) {
	const n = 40
	rng := rand.New(rand.NewSource(9))
	pts := geom.UniformPoints(rng, n, 500)
	cfg := WaypointConfig{MinSpeed: 1, MaxSpeed: 20, Pause: 2, Side: 500}
	for _, tc := range []struct {
		name          string
		batch, single Model
	}{
		{"static", NewStatic(pts), NewStatic(pts)},
		{"waypoint", NewWaypoint(rand.New(rand.NewSource(10)), n, cfg, pts), NewWaypoint(rand.New(rand.NewSource(10)), n, cfg, pts)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var out []geom.Point
			ids := make([]int, 0, n)
			at := 0.0
			w, _ := tc.batch.(*Waypoint)
			legs := make([]int, n) // leg boundaries Positions crossed, per node
			for step := 0; step < 2000; step++ {
				if rng.Intn(4) != 0 {
					at += rng.ExpFloat64() * 3 // otherwise a second call at the same t
				}
				ids = ids[:0]
				for _, id := range rng.Perm(n)[:1+rng.Intn(n)] {
					ids = append(ids, id)
				}
				var before []leg
				if w != nil {
					before = append(before, w.legs...)
				}
				prefix := geom.Point{X: -1, Y: float64(step)}
				out = tc.batch.Positions(ids, at, append(out[:0], prefix))
				for id := range before {
					if w.legs[id] != before[id] {
						legs[id]++
					}
				}
				if len(out) != 1+len(ids) || out[0] != prefix {
					t.Fatalf("step %d: Positions of %d ids returned %d points over the prefix %v", step, len(ids), len(out), out[0])
				}
				for i, id := range ids {
					if want := tc.single.Position(id, at); out[1+i] != want {
						t.Fatalf("step %d t=%.3f: Positions gives node %d %v, Position %v", step, at, id, out[1+i], want)
					}
				}
			}
			for id, k := range legs {
				if w != nil && k < 10 {
					t.Fatalf("node %d crossed %d leg boundaries under Positions in %.0f s, want at least 10", id, k, at)
				}
			}
		})
	}
}
