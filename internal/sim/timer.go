package sim

// Ticker invokes a callback periodically until stopped. The first tick
// fires after an initial delay (use 0 for an immediate tick, or a random
// phase to desynchronize nodes).
type Ticker struct {
	// timer runs tick; tick re-arms it after fn, so each tick's event is
	// scheduled after fn's own, and nothing is allocated per tick.
	timer    *Timer
	interval float64
	fn       func()
	stopped  bool
}

// NewTicker schedules fn every interval seconds, starting after phase
// seconds. Stop the ticker to release it.
func NewTicker(e *Engine, phase, interval float64, fn func()) *Ticker {
	if interval <= 0 {
		panic("sim: ticker interval must be positive")
	}
	t := &Ticker{interval: interval, fn: fn}
	t.timer = NewTimer(e, t.tick)
	t.timer.Reset(phase)
	return t
}

func (t *Ticker) tick() {
	t.fn()
	if !t.stopped { // fn may have stopped us
		t.timer.Reset(t.interval)
	}
}

// SetInterval changes the period for every tick after the next one. The
// currently pending tick keeps its deadline — retuning a refresh cadence
// must not reset its phase, or frequent retunes could starve the ticker.
func (t *Ticker) SetInterval(interval float64) {
	if interval <= 0 {
		panic("sim: ticker interval must be positive")
	}
	t.interval = interval
}

// Stop cancels future ticks: it cancels the timer, which drops its event
// handle, so a later Stop cannot cancel whatever scheduling reuses the event.
func (t *Ticker) Stop() {
	t.stopped = true
	t.timer.Cancel()
}

// Timer is a single-shot resettable timeout.
type Timer struct {
	engine *Engine
	fn     func()
	// fireFn is t.fire bound once: a method value written at the Schedule
	// call is materialised per call, and arming a disarmed timer is DCF's
	// steady state (fire → Reset, Cancel → Reset), not a cold path.
	fireFn func()
	event  *Event
}

// NewTimer creates an unarmed timer that will invoke fn when it expires.
func NewTimer(e *Engine, fn func()) *Timer {
	t := &Timer{engine: e, fn: fn}
	t.fireFn = t.fire
	return t
}

// Reset (re)arms the timer to fire after delay seconds, superseding any
// earlier deadline. While the timer is armed the pending event is rearmed
// in place, one sift instead of a removal and a push; a fired or cancelled
// timer schedules a pooled event. Neither allocates, which is what
// keeps retry-heavy MACs (ACK timeouts rearm on every frame, back-off arms
// after every DIFS) allocation-free in steady state.
//
//pqlint:noalloc
func (t *Timer) Reset(delay float64) {
	if delay < 0 {
		delay = 0
	}
	if t.event != nil && t.engine.rearm(t.event, t.engine.Now()+delay) {
		return
	}
	t.Cancel()
	t.event = t.engine.Schedule(delay, t.fireFn)
}

func (t *Timer) fire() {
	t.event = nil
	t.fn()
}

// Cancel disarms the timer if armed.
func (t *Timer) Cancel() {
	if t.event != nil {
		t.event.Cancel()
		t.event = nil
	}
}
