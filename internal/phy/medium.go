package phy

import (
	"probquorum/internal/geom"
	"probquorum/internal/sim"
)

// plcpPreambleSecs is the PHY preamble + PLCP header duration added to every
// frame: the 802.11 DSSS long preamble, 144 µs + 48 µs at 1 Mb/s
// (IEEE 802.11-2007 §15.2.2), which is what the paper's SWANS/ns-2 radios use.
const plcpPreambleSecs = 192e-6

// reception is what is left of a reception model once the shared medium has
// done everything else (Section 2.3 of the paper gives two: physical/SINR and
// protocol/disk). The medium calls it at fixed points of a signal's life; a
// rule reads the radio's state (active, locked) but never writes it.
type reception interface {
	// signal classifies a transmission for a receiver at distance d; ok is
	// false when the receiver is out of the model's reach and gets no
	// arrival at all.
	signal(d float64) (s signal, ok bool)
	// locks reports whether an idle r starts decoding the new arrival a
	// (already in r.active).
	locks(r *radio, a *arrival) bool
	// corrupts reports whether r.active, which has just grown by one,
	// destroys the frame r is decoding (r.locked).
	corrupts(r *radio) bool
	// survives is asked at the end of an uncorrupted r.locked (already out
	// of r.active): did the frame hold to the end?
	survives(r *radio) bool
	// txStart and txEnd bracket node id's time on the air; p is its
	// position at the start.
	txStart(id int, p geom.Point)
	txEnd(id int)
}

// signal is what one transmission is to one receiver.
type signal struct {
	// powerMw is the received power: what the medium sums for carrier sense
	// and the SINR rule for interference. The disk rule, which has no notion
	// of power, gives every arrival 1 against a carrier-sense threshold of 1.
	powerMw float64
	// inRange reports a sender within the reception range r (disk rule).
	inRange bool
}

// medium is the machinery both reception models share: per-node radios,
// candidate receivers from the spatial index, the two-phase Transmit, one
// end event per transmission, half-duplex, carrier edges, enable/disable and
// the object pools. SINRMedium and DiskMedium embed it and supply the rule.
type medium struct {
	engine *sim.Engine
	world  *world
	rule   reception
	// candRange is the candidate-query radius: no receiver beyond it can
	// get an arrival from the rule.
	candRange float64
	// csThreshMw is the carrier-sense threshold: a radio senses the channel
	// busy while its arrivals' powers plus its ambient noise sum to it.
	csThreshMw float64

	radios []*radio

	// arrivalFree recycles arrival objects: Transmit pops one per
	// candidate receiver and the transmission's end walk pushes it back,
	// so steady-state transmission is allocation-free (DESIGN.md §9).
	arrivalFree []*arrival
	// txFree recycles transmission records the same way.
	txFree []*transmission

	// Snapshot buffers for the two-phase transmit: candidate ids and exact
	// positions are recorded before the commit loop touches any receiver.
	// Reused across transmissions.
	evalDst []int
	evalPos []geom.Point

	// Corrupted counts receptions aborted by interference, collision or
	// the receiver's own transmission — an observability hook for
	// MAC-level loss studies.
	Corrupted uint64
}

// init wires the shared state; w must index the n nodes with cells that suit
// candRange. All nodes start enabled.
func (m *medium) init(engine *sim.Engine, rule reception, w *world, candRange, csThreshMw float64) {
	m.engine, m.rule, m.world, m.candRange, m.csThreshMw = engine, rule, w, candRange, csThreshMw
	m.radios = make([]*radio, w.n)
	for i := range m.radios {
		r := &radio{medium: m, id: i}
		r.txDoneFn = r.txDone
		m.radios[i] = r
	}
}

// Channel implements Medium.
func (m *medium) Channel(id int) Channel { return m.radios[id] }

// SetEnabled implements Medium.
func (m *medium) SetEnabled(id int, on bool) {
	m.world.setEnabled(id, on)
	if !on {
		m.radios[id].reset()
	}
}

// Enabled implements Medium.
func (m *medium) Enabled(id int) bool { return m.world.enabled[id] }

// arrival is one signal currently impinging on a radio. Arrivals are
// recycled through the medium's free list: the medium owns the object
// again as soon as its signalEnd has run, so nothing may retain an arrival
// past that point.
type arrival struct {
	signal
	frame *Frame
	// rx is the radio this arrival impinges on.
	rx *radio
}

// newArrival takes a recycled arrival from the pool (or allocates the
// pool's next object) and initializes it for one receiver.
//
//pqlint:noalloc
func (m *medium) newArrival(rx *radio, f *Frame, s signal) *arrival {
	var a *arrival
	if n := len(m.arrivalFree); n > 0 {
		a = m.arrivalFree[n-1]
		m.arrivalFree[n-1] = nil
		m.arrivalFree = m.arrivalFree[:n-1]
	} else {
		a = &arrival{} //pqlint:allow noalloc(pool-dry cold path: one arrival per concurrent-arrival high-water increase)
	}
	a.signal, a.frame, a.rx = s, f, rx
	return a
}

// freeArrival recycles an arrival whose signalEnd has run, dropping the
// frame and radio references so they do not outlive the signal.
//
//pqlint:noalloc
func (m *medium) freeArrival(a *arrival) {
	a.frame, a.rx = nil, nil
	m.arrivalFree = append(m.arrivalFree, a) //pqlint:allow noalloc(free-list growth is amortized to the pool high-water mark)
}

// transmission is the per-broadcast record of every arrival a frame
// produced, in creation (candidate) order. One engine event per
// transmission walks the list at the frame's end time and runs each
// receiver's signalEnd in that order — equivalent to the former
// one-event-per-arrival scheme (the arrival end events were scheduled
// back-to-back with consecutive sequence numbers, and no other event in the
// system can tie their timestamp exactly), but with event-queue pressure
// per broadcast reduced from O(receivers) to O(1).
type transmission struct {
	arrivals []*arrival
	// endFn is the bound end-walk closure, created once per pooled record
	// so scheduling the end of a transmission does not allocate.
	endFn func()
}

// newTransmission takes a recycled transmission record from the pool.
//
//pqlint:noalloc
func (m *medium) newTransmission() *transmission {
	if n := len(m.txFree); n > 0 {
		t := m.txFree[n-1]
		m.txFree[n-1] = nil
		m.txFree = m.txFree[:n-1]
		return t
	}
	t := &transmission{}                      //pqlint:allow noalloc(pool-dry cold path: one record per in-flight-broadcast high-water increase)
	t.endFn = func() { m.endTransmission(t) } //pqlint:allow noalloc(the closure is created once per pooled record, precisely so the hot path does not allocate it)
	return t
}

// endTransmission runs signalEnd for every arrival in creation order, then
// recycles the record. The record returns to the pool only after the walk:
// a handler inside signalEnd may synchronously transmit, and that nested
// transmission must not grab this record while it is being iterated.
func (m *medium) endTransmission(t *transmission) {
	for i, a := range t.arrivals {
		t.arrivals[i] = nil
		a.rx.signalEnd(a)
	}
	t.arrivals = t.arrivals[:0]
	m.txFree = append(m.txFree, t)
}

// radio is the per-node receiver state.
type radio struct {
	medium  *medium
	id      int
	handler Handler

	txUntil   float64 // transmitting until this time (half-duplex)
	active    []*arrival
	locked    *arrival
	corrupted bool
	busy      bool // last reported carrier state
	// noiseMw is ambient noise injected at this receiver on top of the
	// thermal floor (SINRMedium.SetExtraNoise); the disk rule ignores it.
	noiseMw float64
	// txDoneFn is the bound txDone method, created once so scheduling the
	// end of a transmission does not allocate.
	txDoneFn func()
}

var _ Channel = (*radio)(nil)

func (r *radio) SetHandler(h Handler) { r.handler = h }

func (r *radio) TxDuration(f *Frame) float64 { return f.AirTime(plcpPreambleSecs) }

// Busy implements Channel: carrier is busy while transmitting or while the
// cumulative power of the active arrivals, plus injected noise, is at or
// above the carrier-sense threshold. This one question is data rather than a
// hook because it is asked at every signal start and end: as a hook it alone
// cost about 3 % of a contended DCF second.
func (r *radio) Busy() bool {
	m := r.medium
	return m.engine.Now() < r.txUntil || r.totalPower()+r.noiseMw >= m.csThreshMw
}

func (r *radio) totalPower() float64 {
	sum := 0.0
	for _, a := range r.active {
		sum += a.powerMw
	}
	return sum
}

func (r *radio) reset() {
	// Dropped arrivals are not recycled here: each one is still reachable
	// from its transmission's end walk, and signalEnd is the single owner
	// hand-off point.
	r.active = r.active[:0]
	r.locked = nil
	r.corrupted = false
	r.txUntil = 0
	r.updateCarrier()
}

// Transmit implements Channel. It runs in two phases: a snapshot of
// candidate ids and exact positions (position functions are stateful and the
// candidate list is the index's own buffer, so both are read out before any
// receiver is touched), then a commit that classifies each candidate's
// signal and creates arrivals in candidate order.
func (r *radio) Transmit(f *Frame) {
	m := r.medium
	if !m.Enabled(r.id) {
		return
	}
	end := m.engine.Now() + r.TxDuration(f)
	// Half-duplex: starting a transmission aborts any in-progress
	// reception at this node.
	if r.locked != nil {
		r.corrupted = true
	}
	r.txUntil = end
	m.engine.At(end, r.txDoneFn)
	r.updateCarrier()

	srcPos := m.world.pos(r.id)
	m.rule.txStart(r.id, srcPos)

	// Phase 1: snapshot candidates and exact positions.
	m.evalDst = m.evalDst[:0]
	m.evalPos = m.evalPos[:0]
	for _, dst := range m.world.candidates(r.id, m.candRange) {
		if dst == r.id {
			continue
		}
		m.evalDst = append(m.evalDst, dst)
		m.evalPos = append(m.evalPos, m.world.pos(dst))
	}

	// Phase 2: create arrivals in candidate order.
	var tx *transmission
	rule := m.rule
	for i, dst := range m.evalDst {
		s, ok := rule.signal(geom.Dist(srcPos, m.evalPos[i]))
		if !ok {
			continue
		}
		rx := m.radios[dst]
		a := m.newArrival(rx, f, s)
		if tx == nil {
			tx = m.newTransmission()
		}
		tx.arrivals = append(tx.arrivals, a)
		rx.signalBegin(a)
	}
	if tx != nil {
		m.engine.At(end, tx.endFn)
	}
}

func (r *radio) txDone() {
	r.medium.rule.txEnd(r.id)
	r.updateCarrier()
}

func (r *radio) signalBegin(a *arrival) {
	m := r.medium
	if !m.Enabled(r.id) {
		return
	}
	r.active = append(r.active, a)
	switch {
	case m.engine.Now() < r.txUntil:
		// A transmitting radio cannot receive; the signal is noise only.
	case r.locked == nil:
		if m.rule.locks(r, a) {
			r.locked = a
			r.corrupted = false
		}
	default:
		// Already decoding: the newcomer is interference.
		if m.rule.corrupts(r) {
			r.corrupted = true
		}
	}
	r.updateCarrier()
}

func (r *radio) signalEnd(a *arrival) {
	m := r.medium
	for i, x := range r.active {
		if x == a {
			r.active[i] = r.active[len(r.active)-1]
			r.active = r.active[:len(r.active)-1]
			break
		}
	}
	var deliver *Frame
	if r.locked == a {
		delivered := !r.corrupted && m.engine.Now() >= r.txUntil && m.rule.survives(r)
		if !delivered {
			m.Corrupted++
		}
		r.locked = nil
		r.corrupted = false
		if delivered && r.handler != nil && m.Enabled(r.id) {
			deliver = a.frame
		}
	}
	// The arrival's lifetime ends here; recycle it before the handler
	// runs so a synchronous retransmission can reuse it.
	m.freeArrival(a)
	if deliver != nil {
		r.handler.FrameReceived(deliver)
	}
	r.updateCarrier()
}

func (r *radio) updateCarrier() {
	busy := r.Busy()
	if busy != r.busy {
		r.busy = busy
		if r.handler != nil {
			r.handler.ChannelStateChanged(busy)
		}
	}
}
