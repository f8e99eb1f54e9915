package sim

// Lane is a FIFO of events that each fire the lane's delay after they were
// scheduled; see "Lanes" in the package comment. Make one with
// Engine.NewLane.
type Lane struct {
	eng   *Engine
	delay float64
	// q holds the queued entries in firing order.
	q Queue[laneEntry]
}

// laneEntry is one queued lane event: its key under the heap's order and
// its closure.
type laneEntry struct {
	time float64
	seq  uint64
	fn   func()
}

// NewLane returns a lane whose events fire delay seconds after they are
// scheduled. The engine scans every lane at each step, so a caller keeps a
// small fixed number of them. A negative or NaN delay panics.
func (e *Engine) NewLane(delay float64) *Lane {
	if !(delay >= 0) {
		panic("sim: lane delay must be non-negative")
	}
	l := &Lane{eng: e, delay: delay}
	e.lanes = append(e.lanes, l)
	return l
}

// Delay returns the lane's fixed delay in seconds.
func (l *Lane) Delay() float64 { return l.delay }

// Schedule runs fn the lane's delay from now: at the same time, and in the
// same place among same-time events, as Engine.Schedule(l.Delay(), fn). It
// returns no handle; a lane event cannot be cancelled.
//
//pqlint:noalloc
func (l *Lane) Schedule(fn func()) {
	if fn == nil {
		panic("sim: Lane.Schedule called with nil fn")
	}
	e := l.eng
	l.q.Push(laneEntry{time: e.now + l.delay, seq: e.seq, fn: fn})
	e.seq++
}
