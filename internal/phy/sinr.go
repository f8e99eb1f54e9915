package phy

import (
	"probquorum/internal/geom"
	"probquorum/internal/sim"
)

// SINRMedium implements the paper's physical reception model (Section 2.3):
// a transmission is decoded iff its received power clears the receive
// threshold and its signal-to-interference-plus-noise ratio stays at or
// above the capture threshold β for the whole frame, where interference is
// the cumulative power of all other concurrent arrivals. This mirrors
// SWANS's RadioNoiseAdditive (and ns-2.33's interference model), which the
// paper's simulations use.
type SINRMedium struct {
	engine *sim.Engine
	params Params
	world  *world

	plcpPreamble float64
	// d caches the propagation constants (thresholds in mW, range
	// cutoffs, path-loss factors) so the per-frame×receiver loop does no
	// dBm conversion or math.Pow.
	d Derived
	// candRange is the candidate-query radius: the interference range in
	// the exact model, the carrier-sense range under CellNoise (the far
	// annulus is then covered by the noise field, not by arrivals).
	candRange float64

	radios []*sinrRadio

	// noise is the cell-level far-field interference summary; nil in the
	// exact (default) model. See cellnoise.go.
	noise *noiseField

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

	// Corrupted counts receptions aborted by interference or collision —
	// an observability hook for MAC-level loss studies.
	Corrupted uint64
}

// SINRConfig configures a SINRMedium.
type SINRConfig struct {
	// N is the number of nodes.
	N int
	// Side is the deployment area side length in meters (for the spatial
	// index).
	Side float64
	// Pos reports node positions.
	Pos PositionFunc
	// MaxSpeed is the mobility model's speed bound (index staleness pad).
	MaxSpeed float64
	// Params are the radio parameters; zero value means DefaultParams.
	Params Params
	// PlcpPreambleSecs is the PHY preamble+PLCP header duration added to
	// every frame (802.11 DSSS long preamble: 192 µs). Zero means 192 µs.
	PlcpPreambleSecs float64
	// CellNoise selects the scale-out interference model: arrivals are
	// created only out to the carrier-sense range and the far annulus
	// (out to the interference range) enters the SINR denominator as a
	// cell-aggregated power summary. Approximate — far interferers are
	// charged at their cell center, sampled at signal starts and frame
	// end — but per-broadcast cost stops growing with the interference
	// disc, which is what makes 10k-node runs tractable (DESIGN.md §12).
	CellNoise bool
}

// NewSINRMedium builds the medium. All nodes start enabled.
func NewSINRMedium(engine *sim.Engine, cfg SINRConfig) *SINRMedium {
	if cfg.Params == (Params{}) {
		cfg.Params = DefaultParams()
	}
	if cfg.PlcpPreambleSecs == 0 {
		cfg.PlcpPreambleSecs = 192e-6
	}
	m := &SINRMedium{
		engine:       engine,
		params:       cfg.Params,
		plcpPreamble: cfg.PlcpPreambleSecs,
		d:            cfg.Params.Derived(),
	}
	m.candRange = m.d.InterferenceRange
	if cfg.CellNoise {
		m.candRange = m.d.CarrierSenseRange
		m.noise = newNoiseField(cfg.N, cfg.Side, m.d, cfg.MaxSpeed)
	}
	cell := m.d.CarrierSenseRange
	m.world = newWorld(engine, cfg.N, cfg.Side, cell, cfg.Pos, cfg.MaxSpeed)
	m.radios = make([]*sinrRadio, cfg.N)
	for i := range m.radios {
		r := &sinrRadio{medium: m, id: i}
		r.txDoneFn = r.txDone
		m.radios[i] = r
	}
	return m
}

var _ Medium = (*SINRMedium)(nil)

// Channel implements Medium.
func (m *SINRMedium) Channel(id int) Channel { return m.radios[id] }

// SetEnabled implements Medium.
func (m *SINRMedium) SetEnabled(id int, on bool) {
	m.world.setEnabled(id, on)
	if !on {
		m.radios[id].reset()
	}
}

// Enabled implements Medium.
func (m *SINRMedium) Enabled(id int) bool { return m.world.enabled[id] }

// Params returns the radio parameters in use.
func (m *SINRMedium) Params() Params { return m.params }

// SetExtraNoise sets additional ambient noise power (milliwatts) at
// receiver id — the jamming hook. Extra noise degrades the SINR of an
// in-progress reception (possibly corrupting it on the spot), blocks new
// locks, and raises the sensed carrier, so DCF transmitters inside a jammed
// region back off: a jamming burst silences the area physically rather than
// by fiat. Pass 0 to clear.
func (m *SINRMedium) SetExtraNoise(id int, mw float64) {
	r := m.radios[id]
	r.extraNoiseMw = mw
	if r.locked != nil {
		interference := r.totalPower() - r.locked.powerMw + r.farNoise()
		if r.locked.powerMw/(m.d.NoiseMw+mw+interference) < m.params.SINRCapture {
			r.corrupted = true
		}
	}
	r.updateCarrier()
}

// ExtraNoise returns the jamming noise currently injected at receiver id.
func (m *SINRMedium) ExtraNoise(id int) float64 { return m.radios[id].extraNoiseMw }

// arrival is one signal currently impinging on a radio. Arrivals are
// recycled through the medium's free list: the medium owns the object
// again as soon as its signalEnd has run, so nothing may retain an arrival
// past that point.
type arrival struct {
	frame   *Frame
	powerMw float64
	end     float64
	// rx is the radio this arrival impinges on.
	rx *sinrRadio
}

// newArrival takes a recycled arrival from the pool (or allocates the
// pool's next object) and initializes it for one receiver.
//
//pqlint:noalloc
func (m *SINRMedium) newArrival(rx *sinrRadio, f *Frame, powerMw, end float64) *arrival {
	var a *arrival
	if n := len(m.arrivalFree); n > 0 {
		a = m.arrivalFree[n-1]
		m.arrivalFree[n-1] = nil
		m.arrivalFree = m.arrivalFree[:n-1]
	} else {
		a = &arrival{} //pqlint:allow noalloc(pool-dry cold path: one arrival per concurrent-arrival high-water increase)
	}
	a.frame, a.powerMw, a.end, a.rx = f, powerMw, end, rx
	return a
}

// freeArrival recycles an arrival whose signalEnd has run, dropping the
// frame and radio references so they do not outlive the signal.
//
//pqlint:noalloc
func (m *SINRMedium) freeArrival(a *arrival) {
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
func (m *SINRMedium) newTransmission() *transmission {
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
func (m *SINRMedium) endTransmission(t *transmission) {
	for i, a := range t.arrivals {
		t.arrivals[i] = nil
		a.rx.signalEnd(a)
	}
	t.arrivals = t.arrivals[:0]
	m.txFree = append(m.txFree, t)
}

// sinrRadio is the per-node receiver state.
type sinrRadio struct {
	medium  *SINRMedium
	id      int
	handler Handler

	txUntil   float64 // transmitting until this time (half-duplex)
	active    []*arrival
	locked    *arrival
	corrupted bool
	busy      bool // last reported carrier state
	// extraNoiseMw is injected jamming noise added to the thermal floor.
	extraNoiseMw float64
	// txDoneFn is the bound txDone method, created once so scheduling the
	// end of a transmission does not allocate.
	txDoneFn func()
}

var _ Channel = (*sinrRadio)(nil)

func (r *sinrRadio) SetHandler(h Handler) { r.handler = h }

func (r *sinrRadio) TxDuration(f *Frame) float64 { return f.AirTime(r.medium.plcpPreamble) }

// Busy implements Channel: carrier is busy while transmitting or while the
// cumulative sensed power is at or above the carrier-sense threshold. Under
// CellNoise the far field is deliberately excluded — carrier decisions stay
// near-field-only so they remain consistent with the ChannelStateChanged
// notifications (the far field generates no events to re-notify on).
func (r *sinrRadio) Busy() bool {
	m := r.medium
	if m.engine.Now() < r.txUntil {
		return true
	}
	return r.totalPower()+r.extraNoiseMw >= m.d.CsThreshMw
}

func (r *sinrRadio) totalPower() float64 {
	sum := 0.0
	for _, a := range r.active {
		sum += a.powerMw
	}
	return sum
}

// farNoise returns the cell-aggregated far-field interference power at this
// radio's current position; zero in the exact model.
func (r *sinrRadio) farNoise() float64 {
	m := r.medium
	if m.noise == nil {
		return 0
	}
	return m.noise.farMwAt(m.world.pos(r.id))
}

func (r *sinrRadio) reset() {
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
// receiver is touched), then a commit that computes each candidate's
// received power and creates arrivals in candidate order.
func (r *sinrRadio) Transmit(f *Frame) {
	m := r.medium
	if !m.Enabled(r.id) {
		return
	}
	now := m.engine.Now()
	dur := r.TxDuration(f)
	// Half-duplex: starting a transmission aborts any in-progress
	// reception at this node.
	if r.locked != nil {
		r.corrupted = true
	}
	r.txUntil = now + dur
	m.engine.At(r.txUntil, r.txDoneFn)
	r.updateCarrier()

	srcPos := m.world.pos(r.id)
	if m.noise != nil {
		m.noise.txStart(r.id, srcPos)
	}
	end := now + dur

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
	for i, dst := range m.evalDst {
		p := m.d.ReceivedPowerMw(geom.Dist(srcPos, m.evalPos[i]))
		if p < m.d.CutoffMw {
			continue
		}
		rx := m.radios[dst]
		a := m.newArrival(rx, f, p, end)
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

func (r *sinrRadio) txDone() {
	if m := r.medium; m.noise != nil {
		m.noise.txEnd(r.id)
	}
	r.updateCarrier()
}

func (r *sinrRadio) signalBegin(a *arrival) {
	m := r.medium
	if !m.Enabled(r.id) {
		return
	}
	r.active = append(r.active, a)
	transmitting := m.engine.Now() < r.txUntil
	switch {
	case transmitting:
		// A transmitting radio cannot receive; the signal is noise only.
	case r.locked == nil:
		// Try to lock onto the new signal: strong enough and clean
		// enough at its start.
		interference := r.totalPower() - a.powerMw + r.farNoise()
		if a.powerMw >= m.d.RxThreshMw &&
			a.powerMw/(m.d.NoiseMw+r.extraNoiseMw+interference) >= m.params.SINRCapture {
			r.locked = a
			r.corrupted = false
		}
	default:
		// Already decoding: the newcomer is interference. If it pushes
		// the locked signal's SINR below β, the frame is lost.
		interference := r.totalPower() - r.locked.powerMw + r.farNoise()
		if r.locked.powerMw/(m.d.NoiseMw+r.extraNoiseMw+interference) < m.params.SINRCapture {
			r.corrupted = true
		}
	}
	r.updateCarrier()
}

func (r *sinrRadio) signalEnd(a *arrival) {
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
		delivered := !r.corrupted && m.engine.Now() >= r.txUntil
		if delivered && m.noise != nil {
			// The far field raises no mid-frame events, so re-sample it at
			// delivery: if the aggregate now swamps the locked signal, the
			// frame did not survive the frame time.
			interference := r.totalPower() + r.farNoise()
			if a.powerMw/(m.d.NoiseMw+r.extraNoiseMw+interference) < m.params.SINRCapture {
				delivered = false
			}
		}
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

func (r *sinrRadio) updateCarrier() {
	busy := r.Busy()
	if busy != r.busy {
		r.busy = busy
		if r.handler != nil {
			r.handler.ChannelStateChanged(busy)
		}
	}
}
