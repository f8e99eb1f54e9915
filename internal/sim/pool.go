package sim

// Pool is a free list of short-lived records: events, transmissions, frame
// envelopes, hop messages, op records. Every pool in the simulator keeps
// one rule (DESIGN.md §9):
//
//   - Get pops the record Put last (LIFO), so the reuse order, and with it
//     every simulated number, depends on the sequence of Gets and Puts
//     alone;
//   - the caller resets a record before it Puts it back, keeping what was
//     bound once (callbacks, a timer, storage to reuse) and dropping every
//     reference that must not outlive the record's use;
//   - New, run by Get on an empty list, is the only cold path: it makes a
//     record and binds its callbacks and timer, once per increase of the
//     pool's high-water mark.
//
// At steady state neither Get nor Put allocates. Where a record goes back
// (its ownership condition) is each site's own and is documented there.
type Pool[T any] struct {
	free []T
	// New makes a record when the list is empty.
	New func() T
}

// Get pops the most recently Put record, or makes one with New.
func (p *Pool[T]) Get() T {
	if n := len(p.free); n > 0 {
		x := p.free[n-1]
		var zero T
		p.free[n-1] = zero
		p.free = p.free[:n-1]
		return x
	}
	return p.New() //pqlint:allow noalloc(pool-dry cold path: New runs once per increase of the pool's high-water mark)
}

// Len returns how many records are on the list.
func (p *Pool[T]) Len() int { return len(p.free) }

// Put pushes x, reset by the caller, onto the list.
func (p *Pool[T]) Put(x T) {
	p.free = append(p.free, x) //pqlint:allow noalloc(free-list growth is amortized to the pool's high-water mark)
}
