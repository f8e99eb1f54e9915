package phy

import (
	"probquorum/internal/geom"
	"probquorum/internal/sim"
)

// reception is what is left of a reception model once the shared medium has
// done everything else (Section 2.3 of the paper gives two: physical/SINR and
// protocol/disk). The medium calls it at fixed points of a signal's life; a
// rule reads the radio's state (sumMw, nActive, lockedSig) but never writes it.
type reception interface {
	// signal classifies a transmission for a receiver at distance d; ok is
	// false when the receiver is out of the model's reach and gets no
	// arrival at all.
	signal(d float64) (s signal, ok bool)
	// locks reports whether an idle r starts decoding the new signal s
	// (already counted in r.sumMw and r.nActive).
	locks(r *radio, s signal) bool
	// corrupts reports whether what r hears, which has just grown by one
	// signal, destroys the frame r is decoding (r.lockedSig).
	corrupts(r *radio) bool
	// survives is asked at the end of an uncorrupted r.lockedSig (already
	// out of r.sumMw): did the frame hold to the end?
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
// candidate receivers from the spatial index, Transmit's classify and begin
// loops, one end event per transmission, half-duplex, carrier edges,
// enable/disable and the transmission pool. SINRMedium and DiskMedium embed
// it and supply the rule.
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

	// txFree recycles transmission records, arrival slices included:
	// Transmit pops one and the transmission's end walk pushes it back, so
	// steady-state transmission is allocation-free (DESIGN.md §9).
	txFree []*transmission

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
		r := &radio{medium: m, id: i, epoch: 1}
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

// arrival is one transmission's signal at one radio: a value in the
// transmission's own slice, so it lives exactly as long as the frame is on
// the air and needs no pool and no per-radio list.
type arrival struct {
	signal
	// rx is the radio this arrival impinges on.
	rx *radio
	// epoch is rx.epoch at the moment the signal entered rx's running sum;
	// zero (no radio's epoch) while it has not. The end of the signal leaves
	// the sum only under the same epoch: a radio reset in between has
	// forgotten it.
	epoch uint32
}

// transmission is the per-broadcast record of the frame and every arrival it
// produced, in creation (candidate) order. One engine event per transmission
// walks the list at the frame's end time and runs each receiver's signalEnd
// in that order — equivalent to one event per arrival (they would be
// scheduled back-to-back with consecutive sequence numbers, and no other
// event in the system can tie their timestamp exactly), but with event-queue
// pressure per broadcast reduced from O(receivers) to O(1). A radio decoding
// the frame names it by this record: a transmission gives a radio at most one
// arrival.
type transmission struct {
	frame    *Frame
	arrivals []arrival
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
// transmission must not grab this record while it is being iterated. The
// frame reference is dropped so it does not outlive the signal.
//
//pqlint:noalloc
func (m *medium) endTransmission(t *transmission) {
	for i := range t.arrivals {
		a := &t.arrivals[i]
		a.rx.signalEnd(t, a)
	}
	t.frame, t.arrivals = nil, t.arrivals[:0]
	m.txFree = append(m.txFree, t) //pqlint:allow noalloc(free-list growth is amortized to the pool high-water mark)
}

// radio is the per-node receiver state. What it hears is a running total, as
// in SWANS's RadioNoiseAdditive: sumMw adds at a signal's start and subtracts
// at its end, and is set back to exactly 0 whenever nActive returns to 0, so
// rounding residue never outlives a busy period.
type radio struct {
	medium  *medium
	id      int
	handler Handler

	txUntil float64 // transmitting until this time (half-duplex)
	sumMw   float64 // Σ powerMw of the signals currently impinging
	nActive int     // how many those are
	// epoch stamps the arrivals counted in sumMw/nActive; reset bumps it, so
	// the end of a signal the radio forgot at a disable subtracts nothing.
	epoch uint32
	// locked is the transmission being decoded (nil: none), lockedSig its
	// signal here.
	locked    *transmission
	lockedSig signal
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

func (r *radio) TxDuration(f *Frame) float64 { return f.AirTime() }

// Busy implements Channel: carrier is busy while transmitting or while the
// cumulative power of the impinging signals, plus injected noise, is at or
// above the carrier-sense threshold. This one question is data rather than a
// hook because it is asked at every signal start and end: as a hook it alone
// cost about 3 % of a contended DCF second.
func (r *radio) Busy() bool {
	m := r.medium
	return m.engine.Now() < r.txUntil || r.sumMw+r.noiseMw >= m.csThreshMw
}

func (r *radio) reset() {
	// The forgotten arrivals stay in their transmissions' end walks; the
	// epoch bump is what keeps their ends from touching the fresh sum.
	r.sumMw, r.nActive = 0, 0
	r.epoch++
	r.locked = nil
	r.corrupted = false
	r.txUntil = 0
	r.updateCarrier()
}

// Transmit implements Channel. One loop classifies each candidate's signal
// and builds the frame's arrivals in candidate order — it touches no
// receiver, so the index's own candidate buffer and the stateful position
// functions are read out before anything can react — and a second starts
// them.
//
//pqlint:noalloc
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

	var tx *transmission
	for _, dst := range m.world.candidates(r.id, m.candRange) {
		if dst == r.id {
			continue
		}
		s, ok := m.rule.signal(geom.Dist(srcPos, m.world.pos(dst)))
		if !ok {
			continue
		}
		if tx == nil {
			tx = m.newTransmission()
			tx.frame = f
		}
		tx.arrivals = append(tx.arrivals, arrival{signal: s, rx: m.radios[dst]}) //pqlint:allow noalloc(a pooled record's slice grows to the receivers-per-frame high-water mark)
	}
	if tx == nil {
		return
	}
	for i := range tx.arrivals {
		a := &tx.arrivals[i]
		a.rx.signalBegin(tx, a)
	}
	m.engine.At(end, tx.endFn)
}

func (r *radio) txDone() {
	r.medium.rule.txEnd(r.id)
	r.updateCarrier()
}

//pqlint:noalloc
func (r *radio) signalBegin(t *transmission, a *arrival) {
	m := r.medium
	if !m.Enabled(r.id) {
		return
	}
	a.epoch = r.epoch
	r.sumMw += a.powerMw
	r.nActive++
	switch {
	case m.engine.Now() < r.txUntil:
		// A transmitting radio cannot receive; the signal is noise only.
	case r.locked == nil:
		if m.rule.locks(r, a.signal) {
			r.locked, r.lockedSig = t, a.signal
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

//pqlint:noalloc
func (r *radio) signalEnd(t *transmission, a *arrival) {
	m := r.medium
	if a.epoch == r.epoch {
		if r.nActive--; r.nActive == 0 {
			r.sumMw = 0
		} else {
			r.sumMw -= a.powerMw
		}
	}
	if r.locked == t {
		delivered := !r.corrupted && m.engine.Now() >= r.txUntil && m.rule.survives(r)
		if !delivered {
			m.Corrupted++
		}
		r.locked = nil
		r.corrupted = false
		if delivered && r.handler != nil && m.Enabled(r.id) {
			r.handler.FrameReceived(t.frame)
		}
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
