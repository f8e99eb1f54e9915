package phy

import (
	"probquorum/internal/geom"
	"probquorum/internal/sim"
)

// PositionSource is where a medium reads node positions at simulation time
// t: one node with Position, a whole candidate list with Positions, which
// appends to out in ids' order exactly what Position would return per id.
// mobility.Model satisfies it; t is nondecreasing per node, as the model
// requires.
type PositionSource interface {
	Position(id int, t float64) geom.Point
	Positions(ids []int, t float64, out []geom.Point) []geom.Point
}

// indexRefreshSecs bounds how stale an enabled node's indexed position may
// get in a mobile index before a candidate query re-indexes it.
const indexRefreshSecs = 1.0

// Index is the simulator's one spatial index over node positions, a lazily,
// incrementally refreshed grid: the SINR medium draws a transmission's
// candidate receivers from it, netstack's geometric lists a node's candidate
// neighbours. It only prunes, padded against staleness; the caller filters
// the candidates by the exact rule it needs, on true positions.
//
// Staleness is tracked per node: idxTime stamps when each node was last
// re-indexed, and queue holds the enabled nodes in stamp order (oldest at
// the front). A refresh pops and re-indexes only the entries older than
// indexRefreshSecs — re-stamping them to now and re-appending — instead of
// re-inserting all n nodes, so refresh cost is proportional to how many
// nodes actually went stale since the last query, not to n. The queue stays
// sorted by stamp because a stamp only changes when its entry is re-appended
// at the tail.
type Index struct {
	engine   *sim.Engine
	src      PositionSource
	grid     *geom.Grid
	maxSpeed float64
	// enabled is which nodes the index holds; SetEnabled writes it.
	enabled []bool
	scratch []int

	// Incremental refresh state; unused when maxSpeed == 0 (a static
	// index is maintained by SetEnabled alone, exactly fresh).
	idxTime []float64        // id -> last re-index stamp
	queue   sim.Queue[int32] // enabled ids in stamp order; disabled ids drop lazily
	queued  []bool           // id -> currently in queue
}

// NewIndex indexes nodes 0..n-1, all enabled, in a side×side area with grid
// cells of about cell meters. Positions come from src; maxSpeed bounds how
// fast any node moves (0: nothing does, and the index never refreshes).
func NewIndex(engine *sim.Engine, n int, side, cell float64, src PositionSource, maxSpeed float64) *Index {
	x := &Index{
		engine:   engine,
		src:      src,
		grid:     geom.NewGrid(n, side, cell),
		maxSpeed: maxSpeed,
		enabled:  make([]bool, n),
	}
	for i := 0; i < n; i++ {
		x.enabled[i] = true
		x.grid.Update(i, x.pos(i))
	}
	if maxSpeed > 0 {
		x.idxTime = make([]float64, n) // stamped at construction time zero
		x.queued = make([]bool, n)
		for i := 0; i < n; i++ {
			x.queue.Push(int32(i))
			x.queued[i] = true
		}
	}
	return x
}

// pos is node id's position now.
func (x *Index) pos(id int) geom.Point { return x.src.Position(id, x.engine.Now()) }

// SetEnabled adds node id to the index or takes it out (churn); a disabled
// node is no candidate.
func (x *Index) SetEnabled(id int, on bool) {
	if x.enabled[id] == on {
		return
	}
	x.enabled[id] = on
	if on {
		x.grid.Update(id, x.pos(id))
		if x.maxSpeed > 0 && !x.queued[id] {
			x.idxTime[id] = x.engine.Now()
			x.queue.Push(int32(id))
			x.queued[id] = true
		}
		// If the id's stale entry is still queued (disabled and re-enabled
		// between refreshes), its old stamp stays: the entry keeps its
		// queue position, so the stamp may only understate freshness —
		// the pad over-provisions, never the reverse.
	} else {
		x.grid.Remove(id)
		// The queue entry is dropped lazily when it reaches the head.
	}
}

// refreshIfStale re-indexes exactly the nodes whose stamps have aged past
// indexRefreshSecs. Entries for disabled nodes are discarded as they surface.
func (x *Index) refreshIfStale() {
	if x.maxSpeed == 0 {
		return
	}
	now := x.engine.Now()
	cutoff := now - indexRefreshSecs
	for x.queue.Len() > 0 {
		id := int(*x.queue.Front())
		if x.enabled[id] && x.idxTime[id] > cutoff {
			break
		}
		x.queue.Pop()
		if !x.enabled[id] {
			x.queued[id] = false
			continue
		}
		x.grid.Update(id, x.pos(id))
		x.idxTime[id] = now
		x.queue.Push(int32(id))
	}
}

// pad returns the query-radius slack covering index staleness: twice the
// speed bound times the age of the oldest indexed entry, measured rather
// than assumed. refreshIfStale has just drained every entry older than
// indexRefreshSecs, so the measured age — and therefore the pad — never
// exceeds the worst case 2·maxSpeed·indexRefreshSecs, and is typically much
// smaller right after a refresh burst.
func (x *Index) pad() float64 {
	if x.maxSpeed == 0 {
		return 0
	}
	oldest := x.engine.Now()
	if x.queue.Len() > 0 {
		oldest = x.idxTime[*x.queue.Front()]
	}
	return 2 * x.maxSpeed * (x.engine.Now() - oldest)
}

// Candidates returns the ids of enabled nodes possibly within radius of
// node src's current position, padding the radius against index staleness:
// every enabled node truly within radius is among them, in cell order. The
// returned slice is reused across calls.
func (x *Index) Candidates(src int, radius float64) []int {
	x.refreshIfStale()
	x.scratch = x.grid.Within(x.pos(src), radius+x.pad(), x.scratch[:0])
	return x.scratch
}
