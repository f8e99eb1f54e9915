package phy

import "probquorum/internal/geom"

// arrival is one transmission's signal at one radio: a value in the
// transmission's own slice, so it lives exactly as long as the frame is on
// the air and needs no pool and no per-radio list.
type arrival struct {
	// powerMw is the received power: what the radio sums for carrier sense
	// and for interference.
	powerMw float64
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

// newTransmission is the transmission pool's New: a record with its end walk
// bound.
func (m *SINRMedium) newTransmission() *transmission {
	t := &transmission{}
	t.endFn = func() { m.endTransmission(t) }
	return t
}

// endTransmission runs signalEnd for every arrival in creation order, then
// recycles the record. The clock and the carrier-sense threshold are read
// once for the walk: every signal end in it happens at the same instant. The
// record returns to the pool only after the walk: a handler inside signalEnd
// may synchronously transmit, and that nested transmission must not grab
// this record while it is being iterated. The frame reference is dropped so
// it does not outlive the signal.
//
//pqlint:noalloc
func (m *SINRMedium) endTransmission(t *transmission) {
	now, cs := m.engine.Now(), m.d.CsThreshMw
	for i := range t.arrivals {
		a := &t.arrivals[i]
		a.rx.signalEnd(t, a, now, cs)
	}
	t.frame, t.arrivals = nil, t.arrivals[:0]
	m.txs.Put(t)
}

// radio is the per-node receiver state. What it hears is a running total, as
// in SWANS's RadioNoiseAdditive: sumMw adds at a signal's start and subtracts
// at its end, and is set back to exactly 0 whenever nActive returns to 0, so
// rounding residue never outlives a busy period.
//
// A transmission touches every radio out to the interference range, so the
// fields a signal's start and end read come first, enabled among them, and
// the medium allocates all radios as one array (DESIGN.md §9): the first
// touch of a receiver reads its radio and no separate flag array.
type radio struct {
	// enabled is whether the node participates in the medium, read at
	// every arrival; the spatial index keeps its own flags for its refresh.
	enabled   bool
	busy      bool // last computed carrier state
	corrupted bool
	// mute withholds carrier edges from the handler (SetCarrierNotify).
	// Signal starts and ends leave busy alone while it is set, and
	// unmuting resynchronizes it, so it is exact only while unmuted.
	mute bool
	// overhear hands up decoded frames addressed to other nodes too
	// (SetOverhear); without it signalEnd judges and delivers only the
	// frames addressed to this node or broadcast.
	overhear bool
	// epoch stamps the arrivals counted in sumMw/nActive; reset bumps it, so
	// the end of a signal the radio forgot at a disable subtracts nothing.
	epoch   uint32
	nActive int     // how many signals are currently impinging
	txUntil float64 // transmitting until this time (half-duplex)
	sumMw   float64 // Σ powerMw of the signals currently impinging
	// locked is the transmission being decoded (nil: none), lockedMw its
	// power here.
	locked   *transmission
	lockedMw float64
	// noiseMw is ambient noise injected at this receiver on top of the
	// thermal floor (SINRMedium.SetExtraNoise).
	noiseMw float64

	medium  *SINRMedium
	id      int
	handler Handler
	// txDoneFn is the bound txDone method, created once so scheduling the
	// end of a transmission does not allocate.
	txDoneFn func()
}

var _ Channel = (*radio)(nil)

func (r *radio) SetHandler(h Handler) { r.handler = h }

// SetCarrierNotify implements Channel. Only edges are reported, and Busy
// computes its answer fresh, so a muted radio tracks no carrier state: the
// signal walks skip carrierAt while it is muted, and unmuting first sets
// busy to the state now, without reporting it, as if it had been tracked.
func (r *radio) SetCarrierNotify(on bool) {
	if on && r.mute {
		r.busy = r.busyAt(r.medium.engine.Now(), r.medium.d.CsThreshMw)
	}
	r.mute = !on
}

// SetOverhear implements Channel.
func (r *radio) SetOverhear(on bool) { r.overhear = on }

func (r *radio) TxDuration(f *Frame) float64 { return f.AirTime() }

// Busy implements Channel: carrier is busy while transmitting or while the
// cumulative power of the impinging signals, plus injected noise, is at or
// above the carrier-sense threshold. This one question is data rather than a
// hook because it is asked at every signal start and end: as a hook it alone
// cost about 3 % of a contended DCF second.
func (r *radio) Busy() bool {
	return r.busyAt(r.medium.engine.Now(), r.medium.d.CsThreshMw)
}

// busyAt is Busy at time now against carrier-sense threshold cs, for the
// walks that read both once.
func (r *radio) busyAt(now, cs float64) bool {
	return now < r.txUntil || r.sumMw+r.noiseMw >= cs
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

// Transmit implements Channel. One batched read and two loops over the
// candidates, none of which touches a receiver before the last: the read
// takes all their positions in one Positions call (the source's own among
// them), the first loop computes each received power and builds the frame's
// arrivals in candidate order with no call but the distance's, and the second
// starts them. So the index's own candidate buffer and the stateful position
// source are read out before anything can react, and the divisions and
// square roots of consecutive candidates overlap instead of waiting on a
// position call each. The clock and the carrier-sense threshold are read
// once.
//
// The sender enters the far field (txStart) only after its arrivals have
// begun. Every receiver lies within the far field's inner radius of it
// (cellnoise.go), so its cell adds no term to what they hear, and entering
// it first would only defeat the one-read zero test for every lock the loop
// asks about. A handler that transmitted from inside a signal start would
// miss the sender in its own receivers' far sums; the DCF never does, as a
// carrier edge there only stops its countdown.
//
//pqlint:noalloc
func (r *radio) Transmit(f *Frame) {
	if !r.enabled {
		return
	}
	m := r.medium
	now, cs := m.engine.Now(), m.d.CsThreshMw
	end := now + r.TxDuration(f)
	// Half-duplex: starting a transmission aborts any in-progress
	// reception at this node.
	if r.locked != nil {
		r.corrupted = true
	}
	r.txUntil = end
	m.engine.At(end, r.txDoneFn)
	r.carrierAt(now, cs)

	srcPos := m.index.pos(r.id)
	cands := m.index.Candidates(r.id, m.candRange)
	pts := m.index.src.Positions(cands, now, m.candPos[:0])
	m.candPos = pts
	var tx *transmission
	for i, dst := range cands {
		if dst == r.id {
			continue
		}
		p, ok := m.signal(geom.Dist(srcPos, pts[i]))
		if !ok {
			continue
		}
		if tx == nil {
			tx = m.txs.Get()
			tx.frame = f
		}
		tx.arrivals = append(tx.arrivals, arrival{powerMw: p, rx: m.radios[dst]}) //pqlint:allow noalloc(a pooled record's slice grows to the receivers-per-frame high-water mark)
	}
	if tx != nil {
		for i := range tx.arrivals {
			a := &tx.arrivals[i]
			a.rx.signalBegin(tx, a, now, cs)
		}
		m.engine.At(end, tx.endFn)
	}
	m.txStart(r.id, srcPos)
}

func (r *radio) txDone() {
	r.medium.txEnd(r.id)
	r.updateCarrier()
}

// signalBegin enters a at r, at time now against carrier-sense threshold cs.
//
//pqlint:noalloc
func (r *radio) signalBegin(t *transmission, a *arrival, now, cs float64) {
	if !r.enabled {
		return
	}
	m := r.medium
	a.epoch = r.epoch
	r.sumMw += a.powerMw
	r.nActive++
	switch {
	case now < r.txUntil:
		// A transmitting radio cannot receive; the signal is noise only.
	case r.locked == nil:
		// Most arrivals are below the reception threshold: locks is
		// asked only about the rest.
		if a.powerMw >= m.d.RxThreshMw && m.locks(r, a.powerMw) {
			r.locked, r.lockedMw = t, a.powerMw
			r.corrupted = false
		}
	default:
		// Already decoding: the newcomer is interference.
		if m.corrupts(r) {
			r.corrupted = true
		}
	}
	if !r.mute {
		r.carrierAt(now, cs)
	}
}

// signalEnd takes a out of r, at time now against carrier-sense threshold
// cs, and delivers t's frame if r was decoding it cleanly and wants it: the
// frame is addressed to r or broadcast, or r overhears. The lock on a frame r
// does not want just ends, unjudged: no far-field re-sample, no Corrupted
// count, no upcall, which the MAC would have discarded.
//
//pqlint:noalloc
func (r *radio) signalEnd(t *transmission, a *arrival, now, cs float64) {
	if a.epoch == r.epoch {
		if r.nActive--; r.nActive == 0 {
			r.sumMw = 0
		} else {
			r.sumMw -= a.powerMw
		}
	}
	if r.locked == t {
		corrupted := r.corrupted
		r.locked = nil
		r.corrupted = false
		if f := t.frame; f.Dst == r.id || f.Dst == Broadcast || r.overhear {
			m := r.medium
			if corrupted || now < r.txUntil || !m.survives(r) {
				m.Corrupted++
			} else if r.handler != nil && r.enabled {
				r.handler.FrameReceived(f)
			}
		}
	}
	// The handler can unmute r above (a DCF that queues a frame from
	// inside FrameReceived starts contending), after the sum has dropped:
	// SetCarrierNotify then resynchronizes busy, and the busy→idle edge the
	// carrierAt below would have reported is lost. It is the only edge this
	// end can leave pending, and the DCF, now in DIFS, ignores it.
	if !r.mute {
		r.carrierAt(now, cs)
	}
}

func (r *radio) updateCarrier() { r.carrierAt(r.medium.engine.Now(), r.medium.d.CsThreshMw) }

// carrierAt recomputes the carrier state at time now against threshold cs;
// it is small enough to inline into the walks, which leaves a call only
// for an edge. The walks test mute at their call sites rather than here: the
// test inside would push carrierAt past the inliner's budget (make
// inline-check).
func (r *radio) carrierAt(now, cs float64) {
	if r.busyAt(now, cs) != r.busy {
		r.carrierEdge()
	}
}

// carrierEdge flips the carrier state and reports the edge to the handler
// unless it is muted. Kept out of line so that carrierAt stays inlinable.
//
//go:noinline
func (r *radio) carrierEdge() {
	r.busy = !r.busy
	if r.handler != nil && !r.mute {
		r.handler.ChannelStateChanged(r.busy)
	}
}
