// Package mobility provides node movement models for the simulator: static
// placement and the random waypoint model used throughout the paper's
// evaluation (Section 2.4: speeds 0.5–2 m/s by default, 30 s pause).
//
// Positions are computed analytically from per-node movement "legs", so
// querying a position is cheap and no per-node movement events are needed.
// Queries must be issued with nondecreasing time per node, which holds for a
// discrete-event simulation.
package mobility

import (
	"math/rand"

	"probquorum/internal/geom"
)

// Model yields node positions over time.
type Model interface {
	// Position returns node id's position at simulation time t (seconds).
	// t must be nondecreasing across calls for the same id.
	Position(id int, t float64) geom.Point
	// MaxSpeed returns an upper bound on any node's speed in m/s, used to
	// pad spatial-index query radii against staleness. Zero for static.
	MaxSpeed() float64
}

// Static places nodes at fixed positions.
type Static struct {
	pts []geom.Point
}

// NewStatic builds a static model over the given positions. The slice is
// copied.
func NewStatic(pts []geom.Point) *Static {
	cp := make([]geom.Point, len(pts))
	copy(cp, pts)
	return &Static{pts: cp}
}

// NewStaticUniform places n nodes uniformly at random in a side×side square.
func NewStaticUniform(rng *rand.Rand, n int, side float64) *Static {
	return &Static{pts: geom.UniformPoints(rng, n, side)}
}

// Position implements Model.
func (s *Static) Position(id int, _ float64) geom.Point { return s.pts[id] }

// MaxSpeed implements Model.
func (s *Static) MaxSpeed() float64 { return 0 }

// WaypointConfig parameterizes the random waypoint model.
type WaypointConfig struct {
	// MinSpeed and MaxSpeed bound the uniformly chosen leg speed, m/s.
	MinSpeed, MaxSpeed float64
	// Pause is the mean pause duration at each waypoint, seconds. The
	// actual pause is uniform in [0, 2·Pause] so the mean matches the
	// paper's "average pause time of 30 seconds".
	Pause float64
	// Side is the deployment area side length, meters.
	Side float64
}

// leg is one segment of waypoint movement: the node rests at from until
// depart, then travels to dest arriving at arrive.
type leg struct {
	from, dest     geom.Point
	depart, arrive float64
}

// Waypoint implements the random waypoint model. Each node independently
// picks a destination uniformly in the area and a speed uniformly in
// [MinSpeed, MaxSpeed], travels there in a straight line, pauses, and
// repeats.
type Waypoint struct {
	cfg  WaypointConfig
	rngs []*rand.Rand
	legs []leg
}

// NewWaypoint creates a waypoint model for n nodes with initial positions
// start (uniform placement if nil). rng seeds the per-node streams.
func NewWaypoint(rng *rand.Rand, n int, cfg WaypointConfig, start []geom.Point) *Waypoint {
	if cfg.MaxSpeed < cfg.MinSpeed {
		panic("mobility: MaxSpeed < MinSpeed")
	}
	if cfg.MinSpeed <= 0 {
		panic("mobility: MinSpeed must be positive (zero speed makes waypoint legs never end)")
	}
	if start == nil {
		start = geom.UniformPoints(rng, n, cfg.Side)
	}
	w := &Waypoint{
		cfg:  cfg,
		rngs: make([]*rand.Rand, n),
		legs: make([]leg, n),
	}
	for i := 0; i < n; i++ {
		w.rngs[i] = rand.New(rand.NewSource(rng.Int63()))
		w.legs[i] = w.nextLeg(i, start[i], 0)
	}
	return w
}

// nextLeg generates the leg that begins (with a pause) at position p at
// time t.
func (w *Waypoint) nextLeg(id int, p geom.Point, t float64) leg {
	rng := w.rngs[id]
	pause := 0.0
	if w.cfg.Pause > 0 {
		pause = rng.Float64() * 2 * w.cfg.Pause
	}
	dest := geom.Point{X: rng.Float64() * w.cfg.Side, Y: rng.Float64() * w.cfg.Side}
	speed := w.cfg.MinSpeed + rng.Float64()*(w.cfg.MaxSpeed-w.cfg.MinSpeed)
	depart := t + pause
	travel := geom.Dist(p, dest) / speed
	return leg{from: p, dest: dest, depart: depart, arrive: depart + travel}
}

// Position implements Model.
func (w *Waypoint) Position(id int, t float64) geom.Point {
	l := &w.legs[id]
	for t >= l.arrive {
		w.legs[id] = w.nextLeg(id, l.dest, l.arrive)
		l = &w.legs[id]
	}
	if t <= l.depart {
		return l.from
	}
	frac := (t - l.depart) / (l.arrive - l.depart)
	return geom.Point{
		X: l.from.X + (l.dest.X-l.from.X)*frac,
		Y: l.from.Y + (l.dest.Y-l.from.Y)*frac,
	}
}

// MaxSpeed implements Model.
func (w *Waypoint) MaxSpeed() float64 { return w.cfg.MaxSpeed }
