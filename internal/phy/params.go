// Package phy models the wireless physical layer: radio parameters,
// path-loss propagation (two-ray ground with a Friis near-field), and shared
// transmission media at two fidelities:
//
//   - SINRMedium: cumulative-noise signal-to-interference-plus-noise model
//     with capture, equivalent to SWANS's RadioNoiseAdditive and the paper's
//     "physical model" (Section 2.3).
//   - DiskMedium: the paper's "protocol model" — unit-disk reception with an
//     interference guard zone.
//
// The default parameters reproduce the paper's Fig. 2 exactly: with ns-2's
// 914 MHz carrier and 1.5 m antennas, a 15 dBm transmitter crosses the
// −71 dBm receive threshold at ≈200 m and the −77 dBm carrier-sense
// threshold at ≈299 m.
package phy

import "math"

// DBmToMilliwatt converts a power level in dBm to linear milliwatts.
func DBmToMilliwatt(dbm float64) float64 { return math.Pow(10, dbm/10) }

// Params holds radio and propagation parameters. All powers are in dBm; the
// medium converts to linear milliwatts internally.
type Params struct {
	// TxPowerDBm is the transmit power (paper: 15 dBm = 31.62 mW).
	TxPowerDBm float64
	// RxThreshDBm is the minimum received power to attempt decoding
	// (ns-2 RXThresh; paper: −71 dBm).
	RxThreshDBm float64
	// CsThreshDBm is the carrier-sense threshold (ns-2 CSThresh; paper:
	// −77 dBm).
	CsThreshDBm float64
	// NoiseDBm is the ambient thermal noise floor (paper: −101 dBm).
	NoiseDBm float64
	// SINRCapture is the minimum linear signal-to-interference-plus-noise
	// ratio for successful reception (ns-2 CPThresh; paper: 10).
	SINRCapture float64
	// InterferenceCutoffDBm bounds how weak a signal can be and still be
	// accumulated as interference at a receiver. Signals below this level
	// are dropped to bound the per-transmission work; the default of
	// −91 dBm is 24 dB below the transmit-relevant range and ~10 dB above
	// the noise floor's tenth.
	InterferenceCutoffDBm float64
	// AntennaHeightM is the antenna height used by the two-ray ground
	// model (ns-2 default: 1.5 m).
	AntennaHeightM float64
	// FrequencyHz is the carrier frequency (ns-2 default: 914 MHz).
	FrequencyHz float64
	// AntennaGain is the combined linear TX·RX antenna gain (paper: 0 dB
	// → 1.0).
	AntennaGain float64
	// SystemLoss is the ns-2 system-loss factor L ≥ 1 (default 1).
	SystemLoss float64
}

// DefaultParams returns the paper's Fig. 2 radio configuration.
func DefaultParams() Params {
	return Params{
		TxPowerDBm:            15,
		RxThreshDBm:           -71,
		CsThreshDBm:           -77,
		NoiseDBm:              -101,
		SINRCapture:           10,
		InterferenceCutoffDBm: -91,
		AntennaHeightM:        1.5,
		FrequencyHz:           914e6,
		AntennaGain:           1,
		SystemLoss:            1,
	}
}

const speedOfLight = 299_792_458.0 // m/s

// Wavelength returns the carrier wavelength in meters.
func (p Params) Wavelength() float64 { return speedOfLight / p.FrequencyHz }

// CrossoverDist returns the distance at which the two-ray ground model takes
// over from Friis free-space: d_c = 4π·ht·hr/λ.
func (p Params) CrossoverDist() float64 {
	return 4 * math.Pi * p.AntennaHeightM * p.AntennaHeightM / p.Wavelength()
}

// ReceivedPowerMw returns the received power in milliwatts at distance d
// meters, using Friis free-space below the crossover distance and two-ray
// ground beyond it (the ns-2/SWANS "TwoRay" model).
func (p Params) ReceivedPowerMw(d float64) float64 {
	pt := DBmToMilliwatt(p.TxPowerDBm)
	if d < 1e-9 {
		return pt
	}
	if d < p.CrossoverDist() {
		lambda := p.Wavelength()
		return pt * p.AntennaGain * lambda * lambda /
			(16 * math.Pi * math.Pi * d * d * p.SystemLoss)
	}
	h2 := p.AntennaHeightM * p.AntennaHeightM
	return pt * p.AntennaGain * h2 * h2 / (d * d * d * d * p.SystemLoss)
}

// rangeForThreshold inverts ReceivedPowerMw for a threshold in dBm.
func (p Params) rangeForThreshold(threshDBm float64) float64 {
	thresh := DBmToMilliwatt(threshDBm)
	pt := DBmToMilliwatt(p.TxPowerDBm)
	// Try the two-ray regime first.
	h2 := p.AntennaHeightM * p.AntennaHeightM
	d := math.Pow(pt*p.AntennaGain*h2*h2/(thresh*p.SystemLoss), 0.25)
	if d >= p.CrossoverDist() {
		return d
	}
	lambda := p.Wavelength()
	return math.Sqrt(pt * p.AntennaGain * lambda * lambda /
		(16 * math.Pi * math.Pi * thresh * p.SystemLoss))
}

// ReceptionRange returns the maximum distance at which a transmission can be
// received (ignoring interference): where power falls to RxThreshDBm. With
// the defaults this is ≈213 m (the paper quotes a 200 m ideal range).
func (p Params) ReceptionRange() float64 { return p.rangeForThreshold(p.RxThreshDBm) }

// CarrierSenseRange returns the distance at which a transmission can still
// be sensed: where power falls to CsThreshDBm. With the defaults this is
// ≈299 m, matching the paper's Fig. 2.
func (p Params) CarrierSenseRange() float64 { return p.rangeForThreshold(p.CsThreshDBm) }

// InterferenceRange returns the maximum distance at which a transmission is
// tracked as interference.
func (p Params) InterferenceRange() float64 {
	return p.rangeForThreshold(p.InterferenceCutoffDBm)
}

// Derived holds propagation constants precomputed from Params so the
// innermost loop (received power per frame × candidate receiver) does no
// math.Pow or threshold conversion. Compute it once per medium with
// Params.Derived.
//
// Derived.ReceivedPowerMw is bit-identical to Params.ReceivedPowerMw: the
// cached factors group the constant prefix of each formula exactly as the
// original left-to-right evaluation does, so only constant subexpressions
// are hoisted and no floating-point rounding changes
// (TestDerivedReceivedPowerBitIdentical pins this).
type Derived struct {
	// TxPowerMw is the transmit power in linear milliwatts.
	TxPowerMw float64
	// RxThreshMw, CsThreshMw, NoiseMw, CutoffMw are the dBm thresholds
	// converted to linear milliwatts.
	RxThreshMw, CsThreshMw, NoiseMw, CutoffMw float64
	// CrossoverDist is where two-ray ground takes over from Friis.
	CrossoverDist float64
	// ReceptionRange, CarrierSenseRange, InterferenceRange are the
	// threshold-crossing distances (see the Params methods of the same
	// names).
	ReceptionRange, CarrierSenseRange, InterferenceRange float64

	// friisNum is ((TxPowerMw·G)·λ)·λ — the constant numerator of the
	// Friis branch, grouped as in Params.ReceivedPowerMw.
	friisNum float64
	// friisC is (16·π)·π — the constant head of the Friis denominator.
	friisC float64
	// twoRayNum is ((TxPowerMw·G)·ht²)·ht² — the constant numerator of
	// the two-ray branch.
	twoRayNum float64
	// systemLoss is the ns-2 system-loss factor L.
	systemLoss float64
}

// Derived precomputes the propagation constants for p.
func (p Params) Derived() Derived {
	pt := DBmToMilliwatt(p.TxPowerDBm)
	lambda := p.Wavelength()
	h2 := p.AntennaHeightM * p.AntennaHeightM
	return Derived{
		TxPowerMw:         pt,
		RxThreshMw:        DBmToMilliwatt(p.RxThreshDBm),
		CsThreshMw:        DBmToMilliwatt(p.CsThreshDBm),
		NoiseMw:           DBmToMilliwatt(p.NoiseDBm),
		CutoffMw:          DBmToMilliwatt(p.InterferenceCutoffDBm),
		CrossoverDist:     p.CrossoverDist(),
		ReceptionRange:    p.ReceptionRange(),
		CarrierSenseRange: p.CarrierSenseRange(),
		InterferenceRange: p.InterferenceRange(),
		friisNum:          pt * p.AntennaGain * lambda * lambda,
		friisC:            16 * math.Pi * math.Pi,
		twoRayNum:         pt * p.AntennaGain * h2 * h2,
		systemLoss:        p.SystemLoss,
	}
}

// ReceivedPowerMw returns the received power in milliwatts at distance dist
// meters — the same model as Params.ReceivedPowerMw, with the constant
// subexpressions precomputed and every remaining operation performed in the
// original order so results are bit-identical.
func (d *Derived) ReceivedPowerMw(dist float64) float64 {
	if dist < 1e-9 {
		return d.TxPowerMw
	}
	if dist < d.CrossoverDist {
		return d.friisNum / (d.friisC * dist * dist * d.systemLoss)
	}
	return d.twoRayNum / (dist * dist * dist * dist * d.systemLoss)
}
