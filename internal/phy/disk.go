package phy

import (
	"probquorum/internal/geom"
	"probquorum/internal/sim"
)

// diskDelta is the protocol model's interference guard Δ > 0 (paper §2.3):
// with r = 200 m the guard radius (1+Δ)·r = 300 m is the SINR model's
// ≈299 m carrier-sense range (the paper's Fig. 2), so the two stacks defer
// to the same neighborhood.
const diskDelta = 0.5

// DiskMedium implements the paper's protocol reception model (Section 2.3):
// all transmission ranges equal r; a frame from i is received by j iff
// |Xi−Xj| ≤ r and every other node k transmitting at any point during the
// frame satisfies |Xk−Xj| ≥ (1+Δ)·r. It is cheaper than SINRMedium and is
// the model under which the paper's formal analysis is carried out. The
// shared machinery is medium (medium.go); this file is the reception rule:
// every arrival comes from inside the guard radius, so every arrival is
// sensed and every arrival but the decoded one is fatal.
type DiskMedium struct {
	medium
	r         float64 // transmission range
	intfRange float64 // (1+Δ)·r: interference guard and carrier-sense range
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
	// Range is the transmission range r (the network layer's is the
	// paper's 200 m).
	Range float64
}

// NewDiskMedium builds the medium. All nodes start enabled.
func NewDiskMedium(engine *sim.Engine, cfg DiskConfig) *DiskMedium {
	m := &DiskMedium{r: cfg.Range, intfRange: (1 + diskDelta) * cfg.Range}
	w := newWorld(engine, cfg.N, cfg.Side, m.intfRange, cfg.Pos, cfg.MaxSpeed)
	m.init(engine, m, w, m.intfRange, 1)
	return m
}

var _ Medium = (*DiskMedium)(nil)

func (m *DiskMedium) signal(d float64) (signal, bool) {
	return signal{powerMw: 1, inRange: d <= m.r}, d <= m.intfRange
}

// locks: decodable and alone on the air (s is already counted).
func (m *DiskMedium) locks(r *radio, s signal) bool { return s.inRange && r.nActive == 1 }

func (m *DiskMedium) corrupts(*radio) bool { return true }

func (m *DiskMedium) survives(*radio) bool { return true }

func (m *DiskMedium) txStart(int, geom.Point) {}

func (m *DiskMedium) txEnd(int) {}
