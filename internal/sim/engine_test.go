package sim

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestEngineOrdering(t *testing.T) {
	e := NewEngine(1)
	var got []int
	e.Schedule(2.0, func() { got = append(got, 2) })
	e.Schedule(1.0, func() { got = append(got, 1) })
	e.Schedule(3.0, func() { got = append(got, 3) })
	e.Run(10)
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("events out of order: %v", got)
	}
	if e.Now() != 10 {
		t.Fatalf("Now() = %v, want 10", e.Now())
	}
}

func TestEngineFIFOTieBreak(t *testing.T) {
	e := NewEngine(1)
	var got []int
	for i := 0; i < 50; i++ {
		i := i
		e.At(1.0, func() { got = append(got, i) })
	}
	e.Run(1.0)
	for i, v := range got {
		if v != i {
			t.Fatalf("same-time events not FIFO at %d: %v", i, got)
		}
	}
}

func TestEngineCancel(t *testing.T) {
	e := NewEngine(1)
	fired := false
	ev := e.Schedule(1, func() { fired = true })
	ev.Cancel()
	if e.QueueLen() != 0 {
		t.Fatalf("QueueLen() = %d after the only event was cancelled, want 0", e.QueueLen())
	}
	e.Run(2)
	if fired {
		t.Fatal("cancelled event fired")
	}
}

// TestNaNTimeRejected pins that a NaN time cannot reach the clock, through
// any of the three ways to ask for one: once such an event fired, Now()
// would read NaN for the rest of the run. +Inf stays legal ("never").
func TestNaNTimeRejected(t *testing.T) {
	nan := math.NaN()
	e := NewEngine(1)
	fn := func() {}
	tm := NewTimer(e, fn)
	armed := NewTimer(e, fn)
	armed.Reset(1)
	for _, c := range []struct {
		name string
		call func()
	}{
		{"At", func() { e.At(nan, fn) }},
		{"Schedule", func() { e.Schedule(nan, fn) }},
		{"Timer.Reset", func() { tm.Reset(nan) }},
		{"Timer.Reset (armed)", func() { armed.Reset(nan) }},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s accepted a NaN time", c.name)
				}
			}()
			c.call()
		}()
	}
	e.At(math.Inf(1), fn)
	e.Run(5)
	if e.Now() != 5 || e.QueueLen() != 1 {
		t.Fatalf("after Run(5): Now()=%v QueueLen()=%d, want 5 and the +Inf event still queued", e.Now(), e.QueueLen())
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := NewEngine(1)
	var times []float64
	var recur func()
	n := 0
	recur = func() {
		times = append(times, e.Now())
		n++
		if n < 5 {
			e.Schedule(0.5, recur)
		}
	}
	e.Schedule(0, recur)
	e.Run(100)
	want := []float64{0, 0.5, 1.0, 1.5, 2.0}
	if len(times) != len(want) {
		t.Fatalf("got %d events, want %d", len(times), len(want))
	}
	for i := range want {
		if times[i] != want[i] {
			t.Fatalf("event %d at %v, want %v", i, times[i], want[i])
		}
	}
}

func TestEngineRunBoundary(t *testing.T) {
	e := NewEngine(1)
	var fired []float64
	e.At(1.0, func() { fired = append(fired, 1.0) })
	e.At(2.0, func() { fired = append(fired, 2.0) })
	e.At(2.5, func() { fired = append(fired, 2.5) })
	n := e.Run(2.0)
	if n != 2 {
		t.Fatalf("executed %d events, want 2 (events at exactly `until` included)", n)
	}
	if e.Now() != 2.0 {
		t.Fatalf("Now() = %v, want 2.0", e.Now())
	}
	n = e.Run(3.0)
	if n != 1 {
		t.Fatalf("second Run executed %d, want 1", n)
	}
}

func TestEnginePastScheduling(t *testing.T) {
	e := NewEngine(1)
	var at float64 = -1
	e.At(5, func() {
		e.At(1, func() { at = e.Now() }) // in the past: clamped to now
	})
	e.Run(10)
	if at != 5 {
		t.Fatalf("past event fired at %v, want 5", at)
	}
}

func TestEngineNegativeDelayClamped(t *testing.T) {
	e := NewEngine(1)
	fired := false
	e.Schedule(-3, func() { fired = true })
	e.Run(0)
	if !fired {
		t.Fatal("negative-delay event did not fire at time 0")
	}
}

func TestEngineDeterminism(t *testing.T) {
	run := func(seed int64) []float64 {
		e := NewEngine(seed)
		var out []float64
		for i := 0; i < 100; i++ {
			e.Schedule(e.Rand().Float64()*10, func() { out = append(out, e.Now()) })
		}
		e.Run(20)
		return out
	}
	a, b := run(42), run(42)
	if len(a) != len(b) {
		t.Fatal("runs with same seed differ in length")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs with same seed diverge at %d", i)
		}
	}
}

func TestEngineRandomOrderProperty(t *testing.T) {
	// Property: however events are inserted, execution times are sorted.
	f := func(delays []float64) bool {
		e := NewEngine(7)
		var seen []float64
		for _, d := range delays {
			d = math.Abs(math.Mod(d, 1)) // keep in [0,1)
			if math.IsNaN(d) {
				d = 0
			}
			e.Schedule(d, func() { seen = append(seen, e.Now()) })
		}
		e.Run(2)
		return sort.Float64sAreSorted(seen) && len(seen) == len(delays)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(3))}); err != nil {
		t.Fatal(err)
	}
}

func TestTicker(t *testing.T) {
	e := NewEngine(1)
	var ticks []float64
	tk := NewTicker(e, 0.25, 1.0, func() { ticks = append(ticks, e.Now()) })
	e.Run(3.3)
	tk.Stop()
	e.Run(10)
	want := []float64{0.25, 1.25, 2.25, 3.25}
	if len(ticks) != len(want) {
		t.Fatalf("got %d ticks %v, want %v", len(ticks), ticks, want)
	}
	for i := range want {
		if ticks[i] != want[i] {
			t.Fatalf("tick %d at %v, want %v", i, ticks[i], want[i])
		}
	}
}

func TestTickerStopFromCallback(t *testing.T) {
	e := NewEngine(1)
	n := 0
	var tk *Ticker
	tk = NewTicker(e, 0, 1, func() {
		n++
		if n == 2 {
			tk.Stop()
		}
	})
	e.Run(10)
	if n != 2 {
		t.Fatalf("ticker fired %d times after in-callback Stop, want 2", n)
	}
}

// TestTickerStopTwice pins that Stop drops the ticker's handle: the cancelled
// event goes straight back to the engine's pool, the next scheduling draws
// that object, and a second Stop must not cancel it.
func TestTickerStopTwice(t *testing.T) {
	e := NewEngine(1)
	tk := NewTicker(e, 1, 1, func() {})
	tk.Stop()
	fired := false
	e.Schedule(1, func() { fired = true })
	tk.Stop()
	e.Run(2)
	if !fired {
		t.Fatal("a second Ticker.Stop cancelled an unrelated event")
	}
}

// TestTickerAllocFree: a tick re-arms the ticker's timer, whose callback is
// bound once, with a pooled event, so ticking allocates nothing.
func TestTickerAllocFree(t *testing.T) {
	e := NewEngine(1)
	ticks := 0
	NewTicker(e, 0, 1, func() { ticks++ })
	e.Run(1)
	if avg := testing.AllocsPerRun(200, func() { e.Run(e.Now() + 1) }); avg != 0 {
		t.Fatalf("a tick allocates %.2f objects, want 0", avg)
	}
	if ticks != 2+201 {
		t.Fatalf("%d ticks, want one per second: %d", ticks, 2+201)
	}
}

func TestTimerResetAndCancel(t *testing.T) {
	e := NewEngine(1)
	var fired []float64
	tm := NewTimer(e, func() { fired = append(fired, e.Now()) })
	tm.Reset(1)
	tm.Reset(2) // supersedes
	e.Run(5)
	if len(fired) != 1 || fired[0] != 2 {
		t.Fatalf("timer fired %v, want [2]", fired)
	}
	if tm.event != nil {
		t.Fatal("timer should be disarmed after firing")
	}
	tm.Reset(1)
	tm.Cancel()
	e.Run(10)
	if len(fired) != 1 {
		t.Fatal("cancelled timer fired")
	}
}

func TestNewStreamIndependence(t *testing.T) {
	e1 := NewEngine(9)
	e2 := NewEngine(9)
	s1a, s1b := e1.NewStream(), e1.NewStream()
	s2a, s2b := e2.NewStream(), e2.NewStream()
	for i := 0; i < 10; i++ {
		if s1a.Int63() != s2a.Int63() || s1b.Int63() != s2b.Int63() {
			t.Fatal("streams not reproducible across engines with same seed")
		}
	}
}

func TestPendingCountsLiveOnly(t *testing.T) {
	e := NewEngine(1)
	fn := func() {}
	a := e.Schedule(1, fn)
	b := e.Schedule(2, fn)
	e.Schedule(3, fn)
	for i, ev := range []*Event{a, b} {
		ev.Cancel()
		if got, want := e.QueueLen(), 2-i; got != want {
			t.Fatalf("QueueLen() = %d after %d cancels of 3, want %d: a cancelled event stayed queued", got, i+1, want)
		}
	}
	if n := e.Run(10); n != 1 {
		t.Fatalf("Run executed %d events, want 1", n)
	}
	if e.QueueLen() != 0 {
		t.Fatalf("queue not drained: QueueLen=%d", e.QueueLen())
	}
}

// TestEngineAtAllocFree pins the scheduling hot path at zero allocations in
// steady state: once the event pool is warm, At/Schedule must recycle
// events rather than allocate (DESIGN.md §9).
func TestEngineAtAllocFree(t *testing.T) {
	e := NewEngine(1)
	fn := func() {}
	for i := 0; i < 64; i++ {
		e.Schedule(1, fn)
	}
	e.Run(e.Now() + 2)
	avg := testing.AllocsPerRun(200, func() {
		e.Schedule(1, fn)
		e.Run(e.Now() + 2)
	})
	if avg != 0 {
		t.Fatalf("Schedule+Run allocates %.1f objects/op in steady state, want 0", avg)
	}
}

// TestTimerRearmAllocFree pins Timer.Reset while armed at zero allocations
// and zero queue growth: the pending event is rearmed in place.
func TestTimerRearmAllocFree(t *testing.T) {
	e := NewEngine(1)
	fired := 0
	tm := NewTimer(e, func() { fired++ })
	tm.Reset(5)
	avg := testing.AllocsPerRun(200, func() { tm.Reset(5) })
	if avg != 0 {
		t.Fatalf("armed Reset allocates %.1f objects/op, want 0", avg)
	}
	if ql := e.QueueLen(); ql != 1 {
		t.Fatalf("QueueLen() = %d after repeated rearm, want 1 (rearmed in place)", ql)
	}
	e.Run(e.Now() + 6)
	if fired != 1 {
		t.Fatalf("rearmed timer fired %d times, want 1", fired)
	}
	if tm.event != nil {
		t.Fatal("timer should be disarmed after firing")
	}
}

// TestTimerFireResetAllocFree pins the two ways a disarmed timer is armed
// again — after it fired and after a Cancel — at zero allocations: DCF cycles
// through both (DIFS fires → back-off armed; medium busy → Cancel → idle →
// Reset), so neither is a cold path.
func TestTimerFireResetAllocFree(t *testing.T) {
	e := NewEngine(1)
	fired := 0
	tm := NewTimer(e, func() { fired++ })
	tm.Reset(1)
	e.Run(e.Now() + 2) // warm the event pool
	avg := testing.AllocsPerRun(200, func() {
		tm.Reset(1)
		e.Run(e.Now() + 2)
	})
	if avg != 0 {
		t.Fatalf("Reset after a fire allocates %.1f objects/op, want 0", avg)
	}
	if fired != 202 {
		t.Fatalf("timer fired %d times, want 202", fired)
	}
	avg = testing.AllocsPerRun(200, func() {
		tm.Reset(1)
		tm.Cancel() // the event is back in the pool with no Run
	})
	if avg != 0 {
		t.Fatalf("Reset after a Cancel allocates %.1f objects/op, want 0", avg)
	}
	if fired != 202 || tm.event != nil {
		t.Fatalf("cancelled timer fired (%d) or is still armed", fired)
	}
}

func TestRunAllLimit(t *testing.T) {
	e := NewEngine(1)
	var recur func()
	recur = func() { e.Schedule(1, recur) }
	e.Schedule(0, recur)
	if err := e.RunAll(100); err == nil {
		t.Fatal("RunAll should report exceeding the event budget")
	}
}

// TestHeapPopsInKeyOrder drives the typed heap through a random interleaving
// of At, Cancel, Timer.Reset (rearm in place) and cancels aimed at the root,
// a middle slot and the last slot of the heap, running the engine in
// between. It checks that the queue holds exactly the events still due at
// every step, and that exactly the events never cancelled fire, in exactly
// the order of a sorted reference over their final (time, seq) keys. Times
// are small integers so that ties — and hence the FIFO half of the order —
// are common.
func TestHeapPopsInKeyOrder(t *testing.T) {
	type key struct {
		time float64
		seq  uint64
		id   int
	}
	for seed := int64(1); seed <= 20; seed++ {
		e := NewEngine(seed)
		rng := rand.New(rand.NewSource(seed))
		var fired []int
		want := map[int]key{} // live events by id, with their current keys
		handles := map[int]*Event{}
		nextID := 0
		at := func(dt float64) {
			id := nextID
			nextID++
			ev := e.At(e.Now()+dt, func() {
				fired = append(fired, id)
				delete(handles, id)
			})
			handles[id] = ev
			want[id] = key{ev.time, ev.seq, id}
		}
		timers := make([]*Timer, 8)
		timerID := make([]int, len(timers))
		for i := range timers {
			i := i
			timers[i] = NewTimer(e, func() { fired = append(fired, timerID[i]) })
		}
		reset := func(i int, dt float64) {
			if timers[i].event == nil { // a fresh scheduling: new identity
				timerID[i] = nextID
				nextID++
			}
			timers[i].Reset(dt)
			ev := timers[i].event
			want[timerID[i]] = key{ev.time, ev.seq, timerID[i]}
		}
		cancelAny := func() {
			// Victims in id order from a random start: deterministic per
			// seed, unlike ranging over the map.
			for off, start := 0, rng.Intn(nextID+1); off < nextID; off++ {
				id := (start + off) % nextID
				if ev, ok := handles[id]; ok {
					ev.Cancel()
					delete(handles, id)
					delete(want, id)
					return
				}
			}
		}
		// cancelSlot cancels the event in heap slot i through whichever
		// handle owns it, so that removal from the root, the middle and the
		// last slot are each exercised.
		cancelSlot := func(i int) {
			if i < 0 || i >= e.QueueLen() {
				return
			}
			ev := e.queue[i]
			for k, tm := range timers {
				if tm.event == ev {
					tm.Cancel()
					delete(want, timerID[k])
					return
				}
			}
			for id, h := range handles {
				if h == ev {
					ev.Cancel()
					delete(handles, id)
					delete(want, id)
					return
				}
			}
			t.Fatalf("seed %d: heap slot %d holds an event no handle owns", seed, i)
		}
		for step := 0; step < 4000; step++ {
			switch r := rng.Intn(100); {
			case r < 55:
				at(float64(rng.Intn(40)))
			case r < 65:
				cancelAny()
			case r < 88:
				reset(rng.Intn(len(timers)), float64(rng.Intn(40)))
			case r < 94:
				cancelSlot(0)
				cancelSlot(e.QueueLen() / 2)
				cancelSlot(e.QueueLen() - 1)
			default:
				e.Run(e.Now() + float64(rng.Intn(3)))
			}
			// The queue holds exactly the events still due to fire.
			if live := len(want) - len(fired); e.QueueLen() != live {
				t.Fatalf("seed %d step %d: QueueLen=%d, want %d", seed, step, e.QueueLen(), live)
			}
		}
		e.Run(math.Inf(1))

		ref := make([]key, 0, len(want))
		for _, k := range want {
			ref = append(ref, k)
		}
		sort.Slice(ref, func(i, j int) bool {
			if ref[i].time != ref[j].time {
				return ref[i].time < ref[j].time
			}
			return ref[i].seq < ref[j].seq
		})
		if len(fired) != len(ref) {
			t.Fatalf("seed %d: %d events fired, %d were never cancelled", seed, len(fired), len(ref))
		}
		for i := range ref {
			if fired[i] != ref[i].id {
				t.Fatalf("seed %d: pop %d was event %d, sorted reference has %d (time %v seq %d)",
					seed, i, fired[i], ref[i].id, ref[i].time, ref[i].seq)
			}
		}
		if e.QueueLen() != 0 {
			t.Fatalf("seed %d: queue not drained: QueueLen=%d", seed, e.QueueLen())
		}
	}
}
