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

// worldRefreshSecs bounds how stale an enabled node's indexed position may
// get in a mobile world before a candidate query re-indexes it.
const worldRefreshSecs = 1.0

// world maintains a lazily, incrementally refreshed spatial index over node
// positions so media can find candidate receivers without scanning every
// node. Exact positions for power computation always come from the position
// function; the index is only used to prune candidates, padded against
// staleness.
//
// Staleness is tracked per node: idxTime stamps when each node was last
// re-indexed, and queue holds the enabled nodes in stamp order (oldest at
// head). A refresh pops and re-indexes only the entries older than
// worldRefreshSecs — re-stamping them to now and re-appending — instead of
// re-inserting all n nodes, so refresh cost is proportional to how many
// nodes actually went stale since the last query, not to n. The queue stays
// sorted by stamp because a stamp only changes when its entry is re-appended
// at the tail.
type world struct {
	engine      *sim.Engine
	src         PositionSource
	grid        *geom.Grid
	n           int
	maxSpeed    float64
	refreshSecs float64
	// radios carry the enabled flag the index follows; setEnabled writes it.
	radios  []*radio
	scratch []int

	// Incremental refresh state; unused when maxSpeed == 0 (a static
	// world's index is maintained by setEnabled alone, exactly fresh).
	idxTime []float64 // id -> last re-index stamp
	queue   []int32   // enabled ids in stamp order; disabled ids drop lazily
	head    int       // queue[head:] are the live entries
	queued  []bool    // id -> currently in queue[head:]
}

// newWorld indexes the nodes of radios, all of which it enables.
func newWorld(engine *sim.Engine, radios []*radio, side float64, cell float64, src PositionSource, maxSpeed float64) *world {
	n := len(radios)
	w := &world{
		engine:      engine,
		src:         src,
		grid:        geom.NewGrid(n, side, cell),
		n:           n,
		maxSpeed:    maxSpeed,
		refreshSecs: worldRefreshSecs,
		radios:      radios,
	}
	for i := 0; i < n; i++ {
		radios[i].enabled = true
		w.grid.Update(i, w.pos(i))
	}
	if maxSpeed > 0 {
		w.idxTime = make([]float64, n) // stamped at construction time zero
		w.queued = make([]bool, n)
		w.queue = make([]int32, n, 2*n)
		for i := 0; i < n; i++ {
			w.queue[i] = int32(i)
			w.queued[i] = true
		}
	}
	return w
}

// pos is node id's position now.
func (w *world) pos(id int) geom.Point { return w.src.Position(id, w.engine.Now()) }

func (w *world) setEnabled(id int, on bool) {
	if w.radios[id].enabled == on {
		return
	}
	w.radios[id].enabled = on
	if on {
		w.grid.Update(id, w.pos(id))
		if w.maxSpeed > 0 && !w.queued[id] {
			w.idxTime[id] = w.engine.Now()
			w.queue = append(w.queue, int32(id))
			w.queued[id] = true
		}
		// If the id's stale entry is still queued (disabled and re-enabled
		// between refreshes), its old stamp stays: the entry keeps its
		// queue position, so the stamp may only understate freshness —
		// the pad over-provisions, never the reverse.
	} else {
		w.grid.Remove(id)
		// The queue entry is dropped lazily when it reaches the head.
	}
}

// refreshIfStale re-indexes exactly the nodes whose stamps have aged past
// refreshSecs. Entries for disabled nodes are discarded as they surface.
func (w *world) refreshIfStale() {
	if w.maxSpeed == 0 {
		return
	}
	now := w.engine.Now()
	cutoff := now - w.refreshSecs
	for w.head < len(w.queue) {
		id := int(w.queue[w.head])
		if w.radios[id].enabled && w.idxTime[id] > cutoff {
			break
		}
		w.head++
		if !w.radios[id].enabled {
			w.queued[id] = false
			continue
		}
		w.grid.Update(id, w.pos(id))
		w.idxTime[id] = now
		w.queue = append(w.queue, int32(id)) //pqlint:allow noalloc(the queue is compacted below once its dead prefix passes n, so its capacity settles at a high-water mark)
	}
	// Compact once the dead prefix dominates; copy tolerates overlap, and
	// capacity is reused so steady state does not allocate.
	if w.head > w.n {
		m := copy(w.queue, w.queue[w.head:])
		w.queue = w.queue[:m]
		w.head = 0
	}
}

// pad returns the query-radius slack covering index staleness: twice the
// speed bound times the age of the oldest indexed entry, measured rather
// than assumed. refreshIfStale has just drained every entry older than
// refreshSecs, so the measured age — and therefore the pad — never exceeds
// the old worst-case 2·maxSpeed·refreshSecs, and is typically much smaller
// right after a refresh burst.
func (w *world) pad() float64 {
	if w.maxSpeed == 0 {
		return 0
	}
	oldest := w.engine.Now()
	if w.head < len(w.queue) {
		oldest = w.idxTime[w.queue[w.head]]
	}
	return 2 * w.maxSpeed * (w.engine.Now() - oldest)
}

// candidates returns the ids of enabled nodes possibly within radius of
// node src's current position, padding the radius against index staleness.
// The returned slice is reused across calls.
func (w *world) candidates(src int, radius float64) []int {
	w.refreshIfStale()
	w.scratch = w.grid.Within(w.pos(src), radius+w.pad(), w.scratch[:0])
	return w.scratch
}
