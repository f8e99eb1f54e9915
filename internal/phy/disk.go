package phy

import (
	"probquorum/internal/geom"
	"probquorum/internal/sim"
)

// DiskMedium implements the paper's protocol reception model (Section 2.3):
// all transmission ranges equal r; a frame from i is received by j iff
// |Xi−Xj| ≤ r and every other node k transmitting at any point during the
// frame satisfies |Xk−Xj| ≥ (1+Δ)·r. It is cheaper than SINRMedium and is
// the model under which the paper's formal analysis is carried out.
type DiskMedium struct {
	engine *sim.Engine
	world  *world

	r            float64 // transmission range
	intfRange    float64 // (1+Δ)·r
	csRange      float64 // carrier-sense range
	candRange    float64 // candidate query radius (see NewDiskMedium)
	plcpPreamble float64

	// noise, when non-nil, aggregates far-annulus interferers at cell
	// granularity (DESIGN.md §12) so candRange shrinks to the near field.
	// Nil unless CellNoise is enabled and the carrier-sense range is
	// strictly inside the interference range; the medium is exact then.
	noise *diskNoiseField

	radios []*diskRadio

	// arrivalFree recycles diskArrival objects: Transmit pops one per
	// candidate receiver and the transmission's end walk pushes it back,
	// so steady-state transmission is allocation-free (DESIGN.md §9).
	arrivalFree []*diskArrival
	// txFree recycles diskTransmission records the same way.
	txFree []*diskTransmission

	// Snapshot buffers for the two-phase transmit (see sinrRadio.Transmit).
	// Reused across transmissions.
	evalDst []int
	evalPos []geom.Point
}

// DiskConfig configures a DiskMedium.
type DiskConfig struct {
	// N is the number of nodes.
	N int
	// Side is the deployment area side length in meters.
	Side float64
	// Pos reports node positions.
	Pos PositionFunc
	// MaxSpeed is the mobility speed bound.
	MaxSpeed float64
	// Range is the transmission range r (paper default 200 m). Zero
	// means 200.
	Range float64
	// Delta is the interference guard parameter Δ > 0 (default 0.5, so
	// the interference range is 1.5·r ≈ the SINR model's 299 m
	// carrier-sense range).
	Delta float64
	// CarrierSenseRange defaults to (1+Δ)·r.
	CarrierSenseRange float64
	// PlcpPreambleSecs as in SINRConfig (default 192 µs).
	PlcpPreambleSecs float64
	// CellNoise enables the §12 far-field aggregation (see diskNoiseField):
	// transmitters between the carrier-sense range and the interference
	// range are tracked per grid cell instead of per arrival, shrinking the
	// per-transmit candidate set from the (1+Δ)·r disc to the carrier-sense
	// disc. Only effective when CarrierSenseRange < (1+Δ)·Range — with the
	// default carrier-sense range the annulus is empty and the medium stays
	// exact.
	CellNoise bool
}

// NewDiskMedium builds the medium. All nodes start enabled.
func NewDiskMedium(engine *sim.Engine, cfg DiskConfig) *DiskMedium {
	if cfg.Range == 0 {
		cfg.Range = 200
	}
	if cfg.Delta == 0 {
		cfg.Delta = 0.5
	}
	if cfg.CarrierSenseRange == 0 {
		cfg.CarrierSenseRange = (1 + cfg.Delta) * cfg.Range
	}
	if cfg.PlcpPreambleSecs == 0 {
		cfg.PlcpPreambleSecs = 192e-6
	}
	m := &DiskMedium{
		engine:       engine,
		r:            cfg.Range,
		intfRange:    (1 + cfg.Delta) * cfg.Range,
		csRange:      cfg.CarrierSenseRange,
		plcpPreamble: cfg.PlcpPreambleSecs,
	}
	m.candRange = m.intfRange
	if m.csRange > m.candRange {
		m.candRange = m.csRange
	}
	if cfg.CellNoise && m.csRange < m.intfRange {
		// Near field = everything exact arrivals must still cover: the
		// carrier-sense disc, but never smaller than the reception range.
		near := m.csRange
		if near < m.r {
			near = m.r
		}
		m.candRange = near
		m.noise = newDiskNoiseField(cfg.N, cfg.Side, near, m.intfRange, cfg.MaxSpeed)
	}
	m.world = newWorld(engine, cfg.N, cfg.Side, m.candRange, cfg.Pos, cfg.MaxSpeed)
	m.radios = make([]*diskRadio, cfg.N)
	for i := range m.radios {
		r := &diskRadio{medium: m, id: i}
		r.txDoneFn = r.txDone
		if m.noise != nil {
			r.noiseEndFn = func() { m.noise.txEnd(r.id) }
		}
		m.radios[i] = r
	}
	return m
}

var _ Medium = (*DiskMedium)(nil)

// Channel implements Medium.
func (m *DiskMedium) Channel(id int) Channel { return m.radios[id] }

// SetEnabled implements Medium.
func (m *DiskMedium) SetEnabled(id int, on bool) {
	m.world.setEnabled(id, on)
	if !on {
		m.radios[id].reset()
	}
}

// Enabled implements Medium.
func (m *DiskMedium) Enabled(id int) bool { return m.world.enabled[id] }

// Range returns the transmission range r.
func (m *DiskMedium) Range() float64 { return m.r }

// diskArrival is a signal impinging on a disk radio. Arrivals are recycled
// through the medium's free list: the medium owns the object again as soon
// as its signalEnd has run, so nothing may retain one past that point.
type diskArrival struct {
	frame *Frame
	// inRange: within the reception range r (decodable).
	inRange bool
	// interferes: within (1+Δ)·r (kills concurrent receptions).
	interferes bool
	// senses: within the carrier-sense range.
	senses bool
	end    float64
	// rx is the radio this arrival impinges on.
	rx *diskRadio
}

// newArrival takes a recycled diskArrival from the pool (or allocates the
// pool's next object) and initializes it for one receiver.
//
//pqlint:noalloc
func (m *DiskMedium) newArrival(rx *diskRadio, f *Frame, inRange, interferes, senses bool, end float64) *diskArrival {
	var a *diskArrival
	if n := len(m.arrivalFree); n > 0 {
		a = m.arrivalFree[n-1]
		m.arrivalFree[n-1] = nil
		m.arrivalFree = m.arrivalFree[:n-1]
	} else {
		a = &diskArrival{} //pqlint:allow noalloc(pool-dry cold path: one arrival per concurrent-arrival high-water increase)
	}
	a.frame, a.inRange, a.interferes, a.senses, a.end, a.rx = f, inRange, interferes, senses, end, rx
	return a
}

// freeArrival recycles an arrival whose signalEnd has run.
//
//pqlint:noalloc
func (m *DiskMedium) freeArrival(a *diskArrival) {
	a.frame, a.rx = nil, nil
	m.arrivalFree = append(m.arrivalFree, a) //pqlint:allow noalloc(free-list growth is amortized to the pool high-water mark)
}

// diskTransmission mirrors the SINR medium's transmission record: all
// arrivals one frame produced, in creation order, retired by a single
// engine event that walks them (see the transmission type in sinr.go for
// the equivalence argument).
type diskTransmission struct {
	arrivals []*diskArrival
	// endFn is the bound end-walk closure, created once per pooled record
	// so scheduling the end of a transmission does not allocate.
	endFn func()
}

// newTransmission takes a recycled record from the pool.
//
//pqlint:noalloc
func (m *DiskMedium) newTransmission() *diskTransmission {
	if n := len(m.txFree); n > 0 {
		t := m.txFree[n-1]
		m.txFree[n-1] = nil
		m.txFree = m.txFree[:n-1]
		return t
	}
	t := &diskTransmission{}                  //pqlint:allow noalloc(pool-dry cold path: one record per in-flight-broadcast high-water increase)
	t.endFn = func() { m.endTransmission(t) } //pqlint:allow noalloc(the closure is created once per pooled record, precisely so the hot path does not allocate it)
	return t
}

// endTransmission runs signalEnd for every arrival in creation order, then
// recycles the record (after the walk — a handler may synchronously
// transmit and must not grab the record mid-iteration).
func (m *DiskMedium) endTransmission(t *diskTransmission) {
	for i, a := range t.arrivals {
		t.arrivals[i] = nil
		a.rx.signalEnd(a)
	}
	t.arrivals = t.arrivals[:0]
	m.txFree = append(m.txFree, t)
}

type diskRadio struct {
	medium  *DiskMedium
	id      int
	handler Handler

	txUntil   float64
	active    []*diskArrival
	locked    *diskArrival
	corrupted bool
	busy      bool
	// lockedAt is the time the current locked arrival locked; the
	// cell-noise delivery check asks whether any far transmission started
	// at or after it. Meaningful only while locked != nil.
	lockedAt float64
	// txDoneFn is the bound txDone method, created once so scheduling the
	// end of a transmission does not allocate.
	txDoneFn func()
	// noiseEndFn retires this radio's transmission from the cell-noise
	// field; bound once so the hot path does not allocate. Nil when the
	// field is disabled.
	noiseEndFn func()
}

var _ Channel = (*diskRadio)(nil)

func (r *diskRadio) SetHandler(h Handler) { r.handler = h }

func (r *diskRadio) TxDuration(f *Frame) float64 { return f.AirTime(r.medium.plcpPreamble) }

// Busy implements Channel.
func (r *diskRadio) Busy() bool {
	if r.medium.engine.Now() < r.txUntil {
		return true
	}
	for _, a := range r.active {
		if a.senses {
			return true
		}
	}
	return false
}

func (r *diskRadio) interferenceCount(except *diskArrival) int {
	n := 0
	for _, a := range r.active {
		if a != except && a.interferes {
			n++
		}
	}
	return n
}

func (r *diskRadio) reset() {
	// Dropped arrivals are not recycled here: each one is still reachable
	// from its transmission's end walk, and signalEnd is the single owner
	// hand-off point.
	r.active = r.active[:0]
	r.locked = nil
	r.lockedAt = 0
	r.corrupted = false
	r.txUntil = 0
	r.updateCarrier()
}

// Transmit implements Channel. Like the SINR medium it snapshots candidate
// ids and positions first, then commits arrivals in candidate order.
func (r *diskRadio) Transmit(f *Frame) {
	m := r.medium
	if !m.Enabled(r.id) {
		return
	}
	now := m.engine.Now()
	dur := r.TxDuration(f)
	if r.locked != nil {
		r.corrupted = true
	}
	r.txUntil = now + dur
	m.engine.At(r.txUntil, r.txDoneFn)
	r.updateCarrier()

	srcPos := m.world.pos(r.id)
	end := now + dur

	if m.noise != nil {
		// Register with the far-field index regardless of candidates: this
		// transmitter may sit in the far annulus of receivers well outside
		// its own (reduced) candidate radius.
		m.noise.txStart(r.id, srcPos, now)
		m.engine.At(end, r.noiseEndFn)
	}

	m.evalDst = m.evalDst[:0]
	m.evalPos = m.evalPos[:0]
	for _, dst := range m.world.candidates(r.id, m.candRange) {
		if dst == r.id {
			continue
		}
		m.evalDst = append(m.evalDst, dst)
		m.evalPos = append(m.evalPos, m.world.pos(dst))
	}

	var tx *diskTransmission
	for i, dst := range m.evalDst {
		d := geom.Dist(srcPos, m.evalPos[i])
		inRange := d <= m.r
		interferes := d <= m.intfRange
		senses := d <= m.csRange
		if !inRange && !interferes && !senses {
			continue
		}
		rx := m.radios[dst]
		a := m.newArrival(rx, f, inRange, interferes, senses, end)
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

func (r *diskRadio) txDone() { r.updateCarrier() }

func (r *diskRadio) signalBegin(a *diskArrival) {
	m := r.medium
	if !m.Enabled(r.id) {
		return
	}
	r.active = append(r.active, a)
	transmitting := m.engine.Now() < r.txUntil
	switch {
	case transmitting:
		// noise only
	case r.locked == nil:
		if a.inRange && r.interferenceCount(a) == 0 && !r.farBlocked() {
			r.locked = a
			r.lockedAt = m.engine.Now()
			r.corrupted = false
		}
	default:
		if a.interferes {
			r.corrupted = true
		}
	}
	r.updateCarrier()
}

func (r *diskRadio) signalEnd(a *diskArrival) {
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
		delivered := !r.corrupted && m.engine.Now() >= r.txUntil && !r.farCorrupted()
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

// farBlocked reports whether a far-annulus transmitter is on the air over
// this radio right now — its arrival would have blocked locking in the
// exact model. False when the cell-noise field is off.
func (r *diskRadio) farBlocked() bool {
	m := r.medium
	return m.noise != nil && m.noise.activeAt(m.world.pos(r.id))
}

// farCorrupted reports whether any far-annulus transmission started during
// the locked frame — its arrival would have corrupted the reception in the
// exact model. False when the cell-noise field is off.
func (r *diskRadio) farCorrupted() bool {
	m := r.medium
	return m.noise != nil && m.noise.startedSince(m.world.pos(r.id), r.lockedAt)
}

func (r *diskRadio) updateCarrier() {
	busy := r.Busy()
	if busy != r.busy {
		r.busy = busy
		if r.handler != nil {
			r.handler.ChannelStateChanged(busy)
		}
	}
}
