// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine is the substrate every other package runs on: protocol stacks
// schedule closures at absolute or relative simulation times, and the engine
// executes them in nondecreasing time order with FIFO tie-breaking, so a run
// with a fixed seed is fully reproducible.
//
// # Run isolation invariant
//
// One Engine is one run, and a run is single-threaded: nothing in this
// package (or in the stacks built on it) may be shared across engines or
// touched from another goroutine while the engine runs. Concretely:
//
//   - all randomness flows from the engine's seeded source (Rand/NewStream),
//     never from the global math/rand functions;
//   - neither sim nor any package built on it holds mutable package-level
//     state — every cache, counter, and RNG stream hangs off the Engine or
//     a per-run object constructed around it.
//
// This is what makes the experiment layer's worker pool (experiment.
// RunSweep) safe: independent runs on separate engines may execute
// concurrently with no locks and bit-for-bit deterministic results.
// TestEnginesIsolated enforces the invariant under the race detector; new
// code must preserve it.
//
// # Event recycling
//
// Events are recycled through an engine-owned free list, so steady-state
// scheduling is allocation-free (DESIGN.md §9). The queue holds only events
// that will fire: Cancel takes its event out of the heap at once and hands
// it straight back to the free list. The handle returned by At/Schedule is
// therefore valid only until the event fires or is cancelled; after that
// the engine may reuse the Event for an unrelated later scheduling, so
// callers must drop the handle — a second Cancel through a retained handle
// would cancel whichever event currently occupies the object. Timer and
// Ticker encapsulate this discipline; prefer them for cancellable or
// repeating deadlines.
//
// Times are absolute seconds. A NaN time panics, since it would poison the
// clock; +Inf is legal and means "never".
package sim

import (
	"fmt"
	"math/rand"
)

// Event is a scheduled closure. It can be cancelled before it fires. Once it
// has fired or been cancelled the handle is dead and must be dropped (see
// the package comment on event recycling).
type Event struct {
	time  float64
	seq   uint64
	fn    func()
	index int // heap index, -1 when not queued
	eng   *Engine
}

// Cancel prevents the event from firing: it leaves the queue in O(log n) and
// goes back to the free list. Cancelling an event that is running or has
// fired, through a handle not yet reused, is a no-op; cancelling through a
// handle kept past its fire or an earlier Cancel is a misuse (the object may
// already back a different scheduling).
//
//pqlint:noalloc
func (e *Event) Cancel() {
	if e.index < 0 {
		return
	}
	e.eng.queue.remove(e.index)
	e.eng.release(e)
}

// eventHeap is a binary min-heap on the strict total order (time, seq),
// with sifts typed to *Event: the run loop pops one event per simulated
// frame, and container/heap's interface dispatch was a measurable share of
// that. Pop order depends on the order alone, never on the heap's layout.
type eventHeap []*Event

// before is the order: earlier time first, FIFO among equal times.
func (a *Event) before(b *Event) bool {
	if a.time != b.time {
		return a.time < b.time
	}
	return a.seq < b.seq
}

// up sifts element j toward the root; like down, it shifts the displaced
// elements into the hole and places the sifted one once.
//
//pqlint:noalloc
func (h eventHeap) up(j int) {
	e := h[j]
	for j > 0 {
		i := (j - 1) / 2 // parent
		if !e.before(h[i]) {
			break
		}
		h[j], h[i].index = h[i], j
		j = i
	}
	h[j], e.index = e, j
}

// down sifts element i0 toward the leaves and reports whether it moved.
//
//pqlint:noalloc
func (h eventHeap) down(i0 int) bool {
	e, i := h[i0], i0
	for {
		j := 2*i + 1 // left child
		if j >= len(h) {
			break
		}
		if j+1 < len(h) && h[j+1].before(h[j]) {
			j++
		}
		if !h[j].before(e) {
			break
		}
		h[i], h[j].index = h[j], i
		i = j
	}
	h[i], e.index = e, i
	return i > i0
}

//pqlint:noalloc
func (h *eventHeap) push(e *Event) {
	e.index = len(*h)
	*h = append(*h, e) //pqlint:allow noalloc(queue growth is amortized to the queued-event high-water mark)
	h.up(e.index)
}

// pop removes and returns the earliest event.
//
//pqlint:noalloc
func (h *eventHeap) pop() *Event {
	e := (*h)[0]
	h.remove(0)
	return e
}

// remove takes element i out of the heap: the last element fills its slot
// and is sifted to where the order puts it.
//
//pqlint:noalloc
func (h *eventHeap) remove(i int) {
	old := *h
	n := len(old) - 1
	e := old[i]
	if i < n {
		old[i], old[n].index = old[n], i
		old[:n].fix(i)
	}
	old[n] = nil
	*h = old[:n]
	e.index = -1
}

// fix restores the order after element i's key changed.
func (h eventHeap) fix(i int) {
	if !h.down(i) {
		h.up(i)
	}
}

// Engine is a discrete-event scheduler with an attached random source.
// The zero value is not usable; construct with NewEngine.
type Engine struct {
	now   float64
	seq   uint64
	queue eventHeap
	rng   *rand.Rand
	// processed counts events executed so far.
	processed uint64
	// free is the recycled-Event pool; At pops from it, and the run loop
	// and Cancel push fired or cancelled events back, so steady-state
	// scheduling does not allocate.
	free []*Event
}

// NewEngine returns an engine at time zero whose random source is seeded
// with seed.
func NewEngine(seed int64) *Engine {
	return &Engine{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current simulation time in seconds.
func (e *Engine) Now() float64 { return e.now }

// Rand returns the engine's random source. All protocol randomness should
// come from this source (or a stream derived from it) for reproducibility.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// NewStream derives an independent deterministic random stream from the
// engine's source. Use one stream per stochastic subsystem so that adding
// randomness to one subsystem does not perturb another.
func (e *Engine) NewStream() *rand.Rand {
	return rand.New(rand.NewSource(e.rng.Int63()))
}

// Processed returns the number of events executed so far.
func (e *Engine) Processed() uint64 { return e.processed }

// alloc takes an Event from the free list, or allocates when the pool is
// dry.
//
//pqlint:noalloc
func (e *Engine) alloc() *Event {
	if n := len(e.free); n > 0 {
		ev := e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		return ev
	}
	return &Event{eng: e, index: -1} //pqlint:allow noalloc(pool-dry cold path: one event per live-event high-water increase)
}

// release returns a fired or cancelled event to the free list. The closure
// is dropped immediately so it does not outlive its scheduling.
//
//pqlint:noalloc
func (e *Engine) release(ev *Event) {
	ev.fn = nil
	e.free = append(e.free, ev) //pqlint:allow noalloc(free-list growth is amortized to the live-event high-water mark)
}

// Schedule runs fn after delay seconds. A negative delay is an error by the
// caller; it is clamped to zero so the event fires "now" (after currently
// queued same-time events).
//
//pqlint:noalloc
func (e *Engine) Schedule(delay float64, fn func()) *Event {
	if delay < 0 {
		delay = 0
	}
	return e.At(e.now+delay, fn)
}

// At runs fn at absolute time t. Scheduling in the past fires the event at
// the current time. The returned handle is valid until the event fires or
// is cancelled; see the package comment on event recycling.
//
//pqlint:noalloc
func (e *Engine) At(t float64, fn func()) *Event {
	if fn == nil {
		panic("sim: At called with nil fn")
	}
	t = e.clamp(t)
	ev := e.alloc()
	ev.time, ev.seq, ev.fn = t, e.seq, fn
	e.seq++
	e.queue.push(ev)
	return ev
}

// rearm moves a still-queued event to absolute time t in place — no
// allocation — giving it a fresh FIFO sequence number exactly as if it had
// been cancelled and rescheduled. It reports whether the event could be
// rearmed; a fired or cancelled event cannot be.
func (e *Engine) rearm(ev *Event, t float64) bool {
	if ev.index < 0 {
		return false
	}
	ev.time, ev.seq = e.clamp(t), e.seq
	e.seq++
	e.queue.fix(ev.index)
	return true
}

// clamp maps a requested event time onto the clock: the past becomes now,
// and NaN, which would compare false against every time and leave Now()
// NaN once it fired, panics.
func (e *Engine) clamp(t float64) float64 {
	if t != t {
		panic("sim: event time is NaN")
	}
	if t < e.now {
		return e.now
	}
	return t
}

// Run executes events until the queue is empty or simulation time would
// exceed until. Events scheduled exactly at until are executed. It returns
// the number of events executed during this call.
func (e *Engine) Run(until float64) uint64 {
	start := e.processed
	for len(e.queue) > 0 && e.queue[0].time <= until {
		e.step()
	}
	if e.now < until {
		e.now = until
	}
	return e.processed - start
}

// RunAll executes events until the queue is empty. It is intended for tests
// and analytic drivers; simulations with periodic timers never drain.
func (e *Engine) RunAll(maxEvents uint64) error {
	for n := uint64(1); len(e.queue) > 0; n++ {
		e.step()
		if n >= maxEvents {
			return fmt.Errorf("sim: RunAll exceeded %d events", maxEvents)
		}
	}
	return nil
}

// step pops the earliest event, runs it and recycles it.
func (e *Engine) step() {
	ev := e.queue.pop()
	e.now = ev.time
	ev.fn()
	e.processed++
	e.release(ev)
}

// QueueLen returns the number of queued events; every one of them will fire
// unless it is cancelled first, since a cancelled event leaves the queue at
// once. The benchmark samples it as the heap depth.
func (e *Engine) QueueLen() int { return len(e.queue) }
