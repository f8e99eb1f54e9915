package sim

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// laneFire is one line of a laneProgram's log: a callback that ran (its id,
// below -1 for a timer's, and src, the lane it was scheduled on or -1) or a
// Run/RunAll call that returned (id -1), with the engine's clock and
// counters at that point.
type laneFire struct {
	id, src   int
	time      float64
	processed uint64
	queueLen  int
	limited   bool // RunAll returned at its event limit
}

// laneProgram is a seeded random program over one engine: it schedules on
// lanes, through Schedule and At, cancels, and resets and cancels timers,
// from the top level and from inside its callbacks. With heap set, every
// lane.Schedule is replaced by Engine.Schedule with the lane's delay; the
// program is otherwise the same, so a run with lanes and a run without must
// write the same log.
type laneProgram struct {
	e       *Engine
	rng     *rand.Rand
	heap    bool
	delays  []float64 // the lanes' delays
	lanes   []*Lane   // nil when heap
	handles []*Event  // cancellable live events, by slot
	ids     []int     // the id of handles[i]
	timers  []*Timer
	budget  int // schedulings left
	nextID  int
	until   float64 // the running Run call's bound
	log     []laneFire
	// atUntil counts callbacks that ran at exactly their Run call's bound.
	atUntil int
}

// steps are the delays a program draws: dyadic, so that sums are exact and
// equal times common.
var steps = []float64{0, 0.25, 0.5, 1, 1.5}

func newLaneProgram(seed int64, heap bool) *laneProgram {
	p := &laneProgram{e: NewEngine(seed), rng: rand.New(rand.NewSource(seed)), heap: heap, budget: 3000}
	for i := 1 + p.rng.Intn(5); i > 0; i-- {
		d := steps[p.rng.Intn(len(steps))]
		p.delays = append(p.delays, d)
		if !heap {
			p.lanes = append(p.lanes, p.e.NewLane(d))
		}
	}
	for i := 0; i < 4; i++ {
		id := -(i + 2) // a timer's callbacks log its own id
		p.timers = append(p.timers, NewTimer(p.e, func() { p.fired(id, -1) }))
	}
	return p
}

// fired logs a callback and lets it act on the engine.
func (p *laneProgram) fired(id, src int) {
	if p.e.Now() == p.until {
		p.atUntil++
	}
	p.record(id, src)
	for k := p.rng.Intn(4); k > 0; k-- {
		p.act()
	}
}

func (p *laneProgram) record(id, src int) {
	p.log = append(p.log, laneFire{id: id, src: src, time: p.e.Now(), processed: p.e.Processed(), queueLen: p.e.QueueLen()})
}

// handle returns a callback for id that drops its handle when it fires.
func (p *laneProgram) handle(id int) func() {
	return func() {
		for i, h := range p.ids {
			if h == id {
				last := len(p.ids) - 1
				p.ids[i], p.handles[i] = p.ids[last], p.handles[last]
				p.ids, p.handles = p.ids[:last], p.handles[:last]
				break
			}
		}
		p.fired(id, -1)
	}
}

// act performs one random action while the budget lasts.
func (p *laneProgram) act() {
	if p.budget == 0 {
		return
	}
	p.budget--
	id := p.nextID
	p.nextID++
	d := steps[p.rng.Intn(len(steps))]
	switch p.rng.Intn(8) {
	case 0, 1, 2: // a lane event
		k := p.rng.Intn(len(p.delays))
		fn := func() { p.fired(id, k) }
		if p.heap {
			p.e.Schedule(p.delays[k], fn)
		} else {
			p.lanes[k].Schedule(fn)
		}
	case 3:
		p.handles = append(p.handles, p.e.Schedule(d, p.handle(id)))
		p.ids = append(p.ids, id)
	case 4: // an absolute time, now or in the past included
		p.handles = append(p.handles, p.e.At(p.e.Now()+d-0.5, p.handle(id)))
		p.ids = append(p.ids, id)
	case 5:
		if n := len(p.handles); n > 0 {
			i := p.rng.Intn(n)
			p.handles[i].Cancel()
			p.ids[i], p.handles[i] = p.ids[n-1], p.handles[n-1]
			p.ids, p.handles = p.ids[:n-1], p.handles[:n-1]
		}
	case 6: // a rearm when armed, a pooled event when not
		p.timers[p.rng.Intn(len(p.timers))].Reset(d)
	case 7:
		p.timers[p.rng.Intn(len(p.timers))].Cancel()
	}
}

// runRun drives the program with Run, each bound a step past the clock, so
// that bounds fall exactly on event times.
func (p *laneProgram) runRun() {
	for i := 0; i < 20; i++ {
		p.act()
	}
	for p.budget > 0 || p.e.QueueLen() > 0 {
		for k := p.rng.Intn(3); k > 0; k-- {
			p.act()
		}
		p.until = p.e.Now() + steps[p.rng.Intn(len(steps))]
		p.e.Run(p.until)
		p.record(-1, -1)
	}
}

// runRunAll drives the program with RunAll under small event limits.
func (p *laneProgram) runRunAll() error {
	p.until = -1
	for i := 0; i < 20; i++ {
		p.act()
	}
	for p.budget > 0 || p.e.QueueLen() > 0 {
		for k := p.rng.Intn(3); k > 0; k-- {
			p.act()
		}
		max := uint64(1 + p.rng.Intn(50))
		err := p.e.RunAll(max)
		if err == nil && p.e.QueueLen() > 0 {
			return fmt.Errorf("RunAll(%d) returned nil with %d events queued", max, p.e.QueueLen())
		}
		p.record(-1, -1)
		p.log[len(p.log)-1].limited = err != nil
	}
	return nil
}

// TestLanesMatchHeap is the lane's oracle: a seeded random program that
// mixes lanes (one to five, equal and distinct delays), Schedule, At, Cancel
// and Timer.Reset, with callbacks that schedule further events, fires the
// same callbacks at the same times in the same order when every
// lane.Schedule is replaced by Engine.Schedule with the lane's delay — under
// Run, with bounds exactly at event times, and under RunAll — with equal
// Processed() and QueueLen() after every event.
func TestLanesMatchHeap(t *testing.T) {
	var ties, atUntil, laneFires int
	for seed := int64(1); seed <= 40; seed++ {
		for _, mode := range []string{"Run", "RunAll"} {
			var logs [2][]laneFire
			for i, heap := range []bool{false, true} {
				p := newLaneProgram(seed, heap)
				if mode == "Run" {
					p.runRun()
				} else if err := p.runRunAll(); err != nil {
					t.Fatalf("seed %d, heap=%v: %v", seed, heap, err)
				}
				logs[i] = p.log
				if !heap {
					atUntil += p.atUntil
				}
			}
			if !reflect.DeepEqual(logs[0], logs[1]) {
				for i := range logs[0] {
					if i >= len(logs[1]) || logs[0][i] != logs[1][i] {
						var want any = "nothing"
						if i < len(logs[1]) {
							want = logs[1][i]
						}
						t.Fatalf("seed %d under %s: line %d is %+v with lanes, %+v with the heap alone", seed, mode, i, logs[0][i], want)
					}
				}
				t.Fatalf("seed %d under %s: the heap alone wrote %d lines, the lanes %d", seed, mode, len(logs[1]), len(logs[0]))
			}
			for i, l := range logs[0] {
				if l.id >= 0 && l.src >= 0 {
					laneFires++
					if i > 0 && logs[0][i-1].id >= 0 && logs[0][i-1].time == l.time && logs[0][i-1].src != l.src {
						ties++
					}
				}
			}
		}
	}
	// The program must reach what the order decides: lane events tied in
	// time with events of other lanes or the heap, and Run bounds that fall
	// on an event.
	if laneFires < 40000 || ties < 10000 || atUntil < 10000 {
		t.Fatalf("the programs are too tame: %d lane events, %d ties with another source, %d events at a Run bound", laneFires, ties, atUntil)
	}
}

// TestLaneScheduleAllocFree pins steady-state lane scheduling at zero
// allocations: once the lane's slice has reached its high-water mark it is
// reused, whether it empties between runs or keeps a backlog.
func TestLaneScheduleAllocFree(t *testing.T) {
	e := NewEngine(1)
	l := e.NewLane(1)
	fn := func() {}
	for i := 0; i < 64; i++ {
		l.Schedule(fn)
	}
	e.Run(e.Now() + 2)
	if avg := testing.AllocsPerRun(200, func() {
		l.Schedule(fn)
		e.Run(e.Now() + 2)
	}); avg != 0 {
		t.Fatalf("Lane.Schedule+Run allocates %.1f objects/op in steady state, want 0", avg)
	}
	// A backlog: three entries are scheduled per 0.5 s and each fires 1 s
	// later, so the lane never empties and its dead prefix is copied down.
	for i := 0; i < 64; i++ {
		l.Schedule(fn)
		l.Schedule(fn)
		l.Schedule(fn)
		e.Run(e.Now() + 0.5)
	}
	if avg := testing.AllocsPerRun(200, func() {
		l.Schedule(fn)
		l.Schedule(fn)
		l.Schedule(fn)
		e.Run(e.Now() + 0.5)
	}); avg != 0 {
		t.Fatalf("Lane.Schedule with a backlog allocates %.1f objects/op in steady state, want 0", avg)
	}
	if got, want := e.QueueLen(), 3; got != want {
		t.Fatalf("QueueLen() = %d with one second of backlog, want %d", got, want)
	}
}

// TestLaneRejectsBadDelay pins that a lane's delay cannot move the clock
// back or poison it.
func TestLaneRejectsBadDelay(t *testing.T) {
	e := NewEngine(1)
	for _, d := range []float64{-1, math.NaN()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewLane(%v) accepted the delay", d)
				}
			}()
			e.NewLane(d)
		}()
	}
}
