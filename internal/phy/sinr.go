package phy

import (
	"probquorum/internal/geom"
	"probquorum/internal/sim"
)

// SINRMedium is the shared wireless channel of n nodes under the paper's
// physical reception model (Section 2.3): a transmission is decoded iff its
// received power clears the receive threshold and its
// signal-to-interference-plus-noise ratio stays at or above the capture
// threshold β for the whole frame, where interference is the cumulative
// power of all other concurrent arrivals. This mirrors SWANS's
// RadioNoiseAdditive (and ns-2.33's interference model), which the paper's
// simulations use. This file holds the medium and its reception rule; the
// per-node radios, Transmit's compute and begin loops, one end event per
// transmission, half-duplex, carrier edges and the transmission pool are in
// medium.go.
type SINRMedium struct {
	engine *sim.Engine
	index  *Index
	params Params
	// d caches the propagation constants (thresholds in mW, range
	// cutoffs, path-loss factors) so the per-frame×receiver loop does no
	// dBm conversion or math.Pow.
	d Derived
	// candRange is the candidate-query radius: no receiver beyond it gets
	// an arrival.
	candRange float64

	// noise is the cell-level far-field interference summary; nil in the
	// exact (default) model. See cellnoise.go.
	noise *noiseField

	// radios indexes the per-node radios, which are allocated as one array
	// (see radio).
	radios []*radio

	// txs recycles transmission records, arrival slices included:
	// Transmit takes one and the transmission's end walk puts it back, so
	// steady-state transmission is allocation-free (DESIGN.md §9).
	txs sim.Pool[*transmission]
	// candPos holds the positions of one Transmit's candidates, in
	// candidate order; reused across transmissions.
	candPos []geom.Point

	// Corrupted counts receptions aborted by interference, collision or
	// the receiver's own transmission, among the frames the radio would
	// hand up (addressed to it, broadcast, or overheard): a frame for
	// another node ends unjudged. Read by tests only.
	Corrupted uint64
}

// SINRConfig configures a SINRMedium.
type SINRConfig struct {
	// N is the number of nodes.
	N int
	// Side is the deployment area side length in meters (for the spatial
	// index).
	Side float64
	// Pos reports node positions; a mobility.Model is one.
	Pos PositionSource
	// MaxSpeed is the mobility model's speed bound (index staleness pad).
	MaxSpeed float64
	// Params are the radio parameters; zero value means DefaultParams.
	Params Params
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
	m := &SINRMedium{
		engine: engine,
		params: cfg.Params,
		d:      cfg.Params.Derived(),
	}
	m.txs.New = m.newTransmission
	// The candidate radius is the interference range in the exact model,
	// the carrier-sense range under CellNoise (the far annulus is then
	// covered by the noise field, not by arrivals). Carrier sense (against
	// CsThreshMw) sums arrivals only and so leaves the far field out on
	// purpose: it generates no events on which a ChannelStateChanged could
	// be re-notified.
	m.candRange = m.d.InterferenceRange
	if cfg.CellNoise {
		m.candRange = m.d.CarrierSenseRange
		m.noise = newNoiseField(cfg.N, cfg.Side, m.d, cfg.MaxSpeed)
	}
	all := make([]radio, cfg.N)
	m.radios = make([]*radio, cfg.N)
	for i := range all {
		r := &all[i]
		r.medium, r.id, r.epoch, r.enabled = m, i, 1, true
		r.txDoneFn = r.txDone
		m.radios[i] = r
	}
	m.index = NewIndex(engine, cfg.N, cfg.Side, m.d.CarrierSenseRange, cfg.Pos, cfg.MaxSpeed)
	return m
}

// Channel returns node id's attachment.
func (m *SINRMedium) Channel(id int) Channel { return m.radios[id] }

// SetEnabled includes or excludes a node from the medium (churn). Disabled
// nodes neither transmit nor receive nor interfere.
func (m *SINRMedium) SetEnabled(id int, on bool) {
	m.radios[id].enabled = on
	m.index.SetEnabled(id, on)
	if !on {
		m.radios[id].reset()
	}
}

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
	r.noiseMw = mw
	if r.locked != nil && m.corrupts(r) {
		r.corrupted = true
	}
	r.updateCarrier()
}

// The medium calls the rule below at fixed points of a signal's life. A rule
// reads the radio's state (sumMw, nActive, lockedMw) but never writes it.

// signal returns the power of a transmission at a receiver at distance d; ok
// is false below the interference cutoff, where the receiver gets no arrival
// at all.
func (m *SINRMedium) signal(d float64) (powerMw float64, ok bool) {
	p := m.d.ReceivedPowerMw(d)
	return p, p >= m.d.CutoffMw
}

// locks reports whether an idle r starts decoding a new signal of power p
// (already counted in r.sumMw and r.nActive): strong enough and clean enough
// at its start. The threshold is the cheap question and goes first: an
// arrival between the reception and carrier-sense ranges never walks the
// far-field index.
func (m *SINRMedium) locks(r *radio, p float64) bool {
	return p >= m.d.RxThreshMw &&
		m.captures(r, p, r.sumMw-p+m.FarNoiseMw(r.id))
}

// corrupts reports whether what r hears, which has just grown by a signal
// (or a jamming change), pushes the locked signal's SINR below β.
func (m *SINRMedium) corrupts(r *radio) bool {
	return !m.captures(r, r.lockedMw, r.sumMw-r.lockedMw+m.FarNoiseMw(r.id))
}

// survives is asked at the end of an uncorrupted locked signal (already out
// of r.sumMw). The far field raises no mid-frame events, so it is re-sampled
// at delivery — if the aggregate now swamps the locked signal, the frame did
// not survive the frame time. Always true in the exact model.
func (m *SINRMedium) survives(r *radio) bool {
	return m.noise == nil || m.captures(r, r.lockedMw, r.sumMw+m.FarNoiseMw(r.id))
}

// txStart and txEnd bracket node id's time on the air; p is its position at
// the start.
func (m *SINRMedium) txStart(id int, p geom.Point) {
	if m.noise != nil {
		m.noise.txStart(id, p)
	}
}

func (m *SINRMedium) txEnd(id int) {
	if m.noise != nil {
		m.noise.txEnd(id)
	}
}

// captures reports whether a signal of power p has a
// signal-to-interference-plus-noise ratio at r at or above β, given the
// interference power of everything else.
func (m *SINRMedium) captures(r *radio, p, interference float64) bool {
	return p/(m.d.NoiseMw+r.noiseMw+interference) >= m.params.SINRCapture
}

// FarNoiseMw returns the cell-aggregated far-field interference power
// (milliwatts) at node id's current position; zero in the exact model.
func (m *SINRMedium) FarNoiseMw(id int) float64 {
	if m.noise == nil {
		return 0
	}
	return m.noise.farMwAt(m.index.pos(id))
}
