package sim

// Lane is a FIFO of events that each fire the lane's delay after they were
// scheduled; see "Lanes" in the package comment. Make one with
// Engine.NewLane.
type Lane struct {
	eng   *Engine
	delay float64
	// q[head:] are the queued entries in firing order; q[:head] have fired
	// and hold no closure. The slice grows to its high-water mark and is
	// reused: it is reset when it empties, and copied down when it is full
	// and at least half of it has fired.
	q    []laneEntry
	head int
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
	if len(l.q) == cap(l.q) && l.head > 0 && 2*l.head >= len(l.q) {
		n := copy(l.q, l.q[l.head:])
		clear(l.q[n:])
		l.q, l.head = l.q[:n], 0
	}
	l.q = append(l.q, laneEntry{time: e.now + l.delay, seq: e.seq, fn: fn}) //pqlint:allow noalloc(lane growth is amortized to the lane's high-water mark; a full lane at least half fired is copied down instead)
	e.seq++
}

// pop takes the head entry off the lane and returns its time and closure.
//
//pqlint:noalloc
func (l *Lane) pop() (float64, func()) {
	h := &l.q[l.head]
	t, fn := h.time, h.fn
	h.fn = nil
	l.head++
	if l.head == len(l.q) {
		l.q, l.head = l.q[:0], 0
	}
	return t, fn
}
