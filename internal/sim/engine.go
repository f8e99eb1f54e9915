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
// The one sanctioned exception is ShardedEval (shard.go): a synchronous
// fan-out/join of independent per-item work inside a single event. Its
// contract — no engine calls, no RNG, effects staged and committed in item
// order after the barrier — keeps runs bit-identical at any shard count, so
// it extends the invariant rather than weakening it.
//
// # Event recycling
//
// Events are recycled through an engine-owned free list, so steady-state
// scheduling is allocation-free (DESIGN.md §9). The handle returned by
// At/Schedule is valid only until the event fires or is cancelled; after
// that the engine may reuse the Event for an unrelated later scheduling, so
// callers must drop the handle — retaining it and calling Cancel later
// would cancel whichever event currently occupies the object. Timer and
// Ticker encapsulate this discipline; prefer them for cancellable or
// repeating deadlines.
package sim

import (
	"fmt"
	"math/rand"
)

// Event is a scheduled closure. It can be cancelled before it fires. Once it
// has fired or been cancelled the handle is dead and must be dropped (see
// the package comment on event recycling).
type Event struct {
	time      float64
	seq       uint64
	fn        func()
	index     int // heap index, -1 when not queued
	cancelled bool
	eng       *Engine
}

// Cancel prevents the event from firing. Cancelling an already-fired or
// already-cancelled event through a handle that was dropped on time is a
// no-op; holding the handle past the fire and cancelling then is a misuse
// (the object may already back a different scheduling).
func (e *Event) Cancel() {
	if e.cancelled {
		return
	}
	e.cancelled = true
	if e.index >= 0 && e.eng != nil {
		e.eng.live--
		e.eng.maybeCompact()
	}
}

// Cancelled reports whether Cancel was called.
func (e *Event) Cancelled() bool { return e.cancelled }

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
	old := *h
	n := len(old) - 1
	e, last := old[0], old[n]
	old[n] = nil
	*h = old[:n]
	if n > 0 {
		old[0] = last
		old[:n].down(0)
	}
	e.index = -1
	return e
}

// fix restores the order after element i's key changed.
func (h eventHeap) fix(i int) {
	if !h.down(i) {
		h.up(i)
	}
}

// init establishes the heap order over arbitrary contents.
func (h eventHeap) init() {
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
}

// compactMinQueue is the queue length below which cancelled events are never
// compacted away eagerly — at small sizes the lazy skip in Run is cheaper
// than a heap rebuild.
const compactMinQueue = 64

// Engine is a discrete-event scheduler with an attached random source.
// The zero value is not usable; construct with NewEngine.
type Engine struct {
	now     float64
	seq     uint64
	queue   eventHeap
	rng     *rand.Rand
	stopped bool
	// processed counts events executed so far (cancelled events excluded).
	processed uint64
	// free is the recycled-Event pool; At pops from it and the run loop
	// pushes fired or cancelled events back, so steady-state scheduling
	// does not allocate.
	free []*Event
	// live counts queued events that are not cancelled.
	live int
	// shards is the ShardedEval fan-out width and shardPool its lazily
	// started goroutines; stageBufs holds the ops staged per chunk of the
	// current phase and stageChunk that phase's chunk length (see shard.go).
	shards       int
	shardPool    *shardPool
	stageBufs    [][]func()
	stageChunk   int
	inShardPhase bool
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
// dry. Stale flags are cleared here rather than at release so that a
// just-fired or just-cancelled handle still answers Cancelled() correctly
// until the object is actually reused.
//
//pqlint:noalloc
func (e *Engine) alloc() *Event {
	if n := len(e.free); n > 0 {
		ev := e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		ev.cancelled = false
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
	if t < e.now {
		t = e.now
	}
	ev := e.alloc()
	ev.time, ev.seq, ev.fn = t, e.seq, fn
	e.seq++
	e.queue.push(ev)
	e.live++
	return ev
}

// rearm moves a still-queued, non-cancelled event to absolute time t in
// place — no allocation and no cancelled ghost left in the queue — giving
// it a fresh FIFO sequence number exactly as if it had been cancelled and
// rescheduled. It reports whether the event could be rearmed; a fired or
// cancelled event cannot be.
func (e *Engine) rearm(ev *Event, t float64) bool {
	if ev.index < 0 || ev.cancelled {
		return false
	}
	if t < e.now {
		t = e.now
	}
	ev.time = t
	ev.seq = e.seq
	e.seq++
	e.queue.fix(ev.index)
	return true
}

// maybeCompact rebuilds the queue without its cancelled events once they
// outnumber the live ones. Timer-heavy workloads (MAC ACK timeouts, lookup
// deadlines) cancel far more events than they let fire; without compaction
// those ghosts dominate the heap and every push/pop pays for them. The
// rebuild preserves each live event's (time, seq) key, and the heap order
// is a total order on that key, so execution order — and therefore
// determinism — is unaffected.
func (e *Engine) maybeCompact() {
	if len(e.queue) < compactMinQueue || 2*e.live >= len(e.queue) {
		return
	}
	n := len(e.queue)
	kept := e.queue[:0]
	for _, ev := range e.queue {
		if ev.cancelled {
			ev.index = -1
			e.release(ev)
			continue
		}
		kept = append(kept, ev)
	}
	for i := len(kept); i < n; i++ {
		e.queue[i] = nil
	}
	e.queue = kept
	for i, ev := range e.queue {
		ev.index = i
	}
	e.queue.init()
}

// Stop makes Run return after the currently executing event completes.
func (e *Engine) Stop() { e.stopped = true }

// Run executes events until the queue is empty or simulation time would
// exceed until. Events scheduled exactly at until are executed. It returns
// the number of events executed during this call.
func (e *Engine) Run(until float64) uint64 {
	start := e.processed
	e.stopped = false
	for len(e.queue) > 0 && !e.stopped {
		next := e.queue[0]
		if next.time > until {
			break
		}
		e.queue.pop()
		if next.cancelled {
			e.release(next)
			continue
		}
		e.live--
		e.now = next.time
		next.fn()
		e.processed++
		e.release(next)
	}
	if e.now < until && !e.stopped {
		e.now = until
	}
	return e.processed - start
}

// RunAll executes events until the queue is empty. It is intended for tests
// and analytic drivers; simulations with periodic timers never drain.
func (e *Engine) RunAll(maxEvents uint64) error {
	e.stopped = false
	var n uint64
	for len(e.queue) > 0 && !e.stopped {
		next := e.queue.pop()
		if next.cancelled {
			e.release(next)
			continue
		}
		e.live--
		e.now = next.time
		next.fn()
		e.processed++
		e.release(next)
		if n++; n >= maxEvents {
			return fmt.Errorf("sim: RunAll exceeded %d events", maxEvents)
		}
	}
	return nil
}

// Pending returns the number of live (non-cancelled) queued events.
func (e *Engine) Pending() int { return e.live }

// QueueLen returns the raw queue length including lazily cancelled events
// that have not yet been skipped or compacted away. QueueLen − Pending is
// the ghost population; tests use it to observe compaction.
func (e *Engine) QueueLen() int { return len(e.queue) }
