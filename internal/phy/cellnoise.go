package phy

import (
	"math"

	"probquorum/internal/geom"
)

// noiseField is the cell-level interference aggregate behind SINRConfig
// CellNoise: an opt-in scale-out mode that replaces per-arrival interference
// bookkeeping for the far field with a running spatial summary of who is
// transmitting where.
//
// In the exact model every transmission gives every receiver out to the
// interference range (≈670 m, Derived.InterferenceRange) an arrival, so
// interference cost per broadcast grows with the full interference disc —
// the dominant term at 10k-node densities. With CellNoise the medium creates
// arrivals only out to the carrier-sense range (the near field, where
// locking, capture, and carrier decisions need exact per-signal powers) and
// folds everything beyond into this field: transmitters register their
// indexed position here for the duration of each frame, and a receiver
// queries the cumulative far-field power in one pass over nearby cells.
//
// The far power is approximate by construction — each occupied cell
// contributes count·ReceivedPowerMw(distance to cell center) — but the
// approximation only covers signals that are individually below the
// carrier-sense threshold; their aggregate enters the SINR denominator at
// lock, corruption, jamming, and delivery checks. Two guards keep it sound:
//
//   - Cells whose nearest point lies within innerRadius (carrier-sense range
//     plus index-staleness slop for both the world index and this one) are
//     skipped: those transmitters are already exact arrivals at the
//     receiver, so they must not be double counted. A transmitter falling in
//     the slop annulus is dropped from both sides — CellNoise slightly
//     understates interference there rather than ever overstating it.
//     Every receiver of a frame lies within innerRadius of its sender, so
//     the sender's own cell is never a term at them, which is why Transmit
//     may index the sender after its arrivals have begun.
//   - Carrier sense stays near-field-only, so Busy() and the
//     ChannelStateChanged notifications remain mutually consistent (the far
//     field generates no begin/end events that could re-notify DCF).
//
// Membership is count-based: a node enters the index when its outstanding
// transmission count goes 0→1 and leaves at 1→0, so overlapping or
// rescheduled transmissions cannot unbalance the index, and no floating-
// point accumulator drifts.
//
// The index holds only what is on the air: per cell row, the occupied cells
// in ascending column order. A query walks the rows of its cell box and, in
// each, the occupied entries inside the box's columns — the row-major scan of
// the box restricted to the cells that contribute, so the sum adds the same
// terms in the same order — and costs O(rows + occupied) however large the
// box is and however few transmitters there are.
//
// Most queries sum to nothing, and farOcc answers those with one read. It
// counts, per cell, the indexed transmitters whose cells could pass both
// distance tests for some receiver inside it; the count moves at the same
// 0→1 and 1→0 transitions as the rows, over the fixed offset table reach. A
// receiver whose cell counts zero has no occupied cell that could add a term,
// so the walk would return its untouched 0 — which is what the read returns.
type noiseField struct {
	d Derived
	// txCount is the number of in-flight transmissions per node; the node
	// is indexed, in cell cellOf[id], while the count is positive.
	txCount []int32
	cellOf  []int32
	// rows[cy] lists row cy's occupied cells, ascending cx.
	rows [][]noiseCell
	// farOcc[occIndex(cx, cy)] is the number of indexed transmitters
	// sitting in the cells the reach table puts around cell (cx, cy). The
	// raster has a border of pad cells on every side, which takes the bumps
	// that fall outside the area, so bumpReach tests no bounds; reach holds
	// the table as index offsets into it.
	farOcc      []int32
	reach       []int
	pad, stride int
	// innerRadius separates the exact near field (real arrivals) from the
	// aggregated far field; intfRange bounds the far field's support.
	innerRadius float64
	intfRange   float64
	cell        float64
	cols        int
}

// noiseCell is one occupied cell of a row: its column and how many indexed
// transmitters sit in it.
type noiseCell struct{ cx, count int32 }

// noiseCellsPerIntfRange sets the summary resolution: the interference range
// spans about this many cells, trading center-distance error (~cell·√2/2)
// against cells visited per query.
const noiseCellsPerIntfRange = 3.0

func newNoiseField(n int, side float64, d Derived, maxSpeed float64) *noiseField {
	// An integral number of cells tiles the area, at least one.
	cols := 1
	if size := d.InterferenceRange / noiseCellsPerIntfRange; size > 0 && size <= side {
		cols = int(side / size)
	}
	f := &noiseField{
		d:       d,
		txCount: make([]int32, n),
		cellOf:  make([]int32, n),
		rows:    make([][]noiseCell, cols),
		// Both the world index and this one can be up to worldRefreshSecs
		// stale, so a transmitter's true distance can differ from the
		// indexed one by 2·maxSpeed·refresh on each side.
		innerRadius: d.CarrierSenseRange + 4*maxSpeed*worldRefreshSecs,
		intfRange:   d.InterferenceRange,
		cell:        side / float64(cols),
		cols:        cols,
	}
	// No offset in the table is more than pad cells long: beyond that even
	// the smallest nearest-point distance exceeds intfRange.
	f.pad = min(int((f.intfRange+reachGuard)/f.cell)+1, cols-1)
	f.stride = cols + 2*f.pad
	f.farOcc = make([]int32, f.stride*f.stride)
	f.reach = reachTable(f.cell, f.innerRadius, f.intfRange, f.pad, f.stride)
	return f
}

// reachGuard widens reachTable's two tests by a micrometre, so a receiver
// that rounding places a hair outside its cell still finds every cell it can
// hear in the table.
const reachGuard = 1e-6

// reachTable lists the offsets (dx, dy), at most span cells long, at which a
// transmitter cell can pass farMwAt's two distance tests for some receiver
// inside the cell at the origin, as dy·stride+dx. Per axis, the receiver's
// distance to the nearest point of a cell k steps away lies between
// (|k|−1)⁺·cell and |k|·cell, so the offset is in iff the largest
// nearest-point distance exceeds inner and the smallest does not exceed
// intf. The table is symmetric under negation.
func reachTable(cell, inner, intf float64, span, stride int) []int {
	var reach []int
	for dy := -span; dy <= span; dy++ {
		for dx := -span; dx <= span; dx++ {
			ax, ay := float64(max(dx, -dx)), float64(max(dy, -dy))
			largest := math.Hypot(ax*cell, ay*cell)
			smallest := math.Hypot(max(ax-1, 0)*cell, max(ay-1, 0)*cell)
			if largest > inner-reachGuard && smallest <= intf+reachGuard {
				reach = append(reach, dy*stride+dx)
			}
		}
	}
	return reach
}

// occIndex is cell (cx, cy)'s place in the farOcc raster.
func (f *noiseField) occIndex(cx, cy int) int {
	return (cy+f.pad)*f.stride + cx + f.pad
}

// cellCoord maps a coordinate to its cell column or row, clamped to the area.
func (f *noiseField) cellCoord(x float64) int {
	return min(max(int(x/f.cell), 0), f.cols-1)
}

// find returns the position of column cx in row — where it is or where it
// would be inserted.
func find(row []noiseCell, cx int32) int {
	lo, hi := 0, len(row)
	for lo < hi {
		if mid := (lo + hi) / 2; row[mid].cx < cx {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// txStart registers one outstanding transmission from id at indexed
// position p. The position sticks for the node's whole transmitting episode
// (until the count drains to zero); at these ranges the center-distance
// quantization dominates any intra-frame movement.
func (f *noiseField) txStart(id int, p geom.Point) {
	f.txCount[id]++
	if f.txCount[id] != 1 {
		return
	}
	cx, cy := int32(f.cellCoord(p.X)), f.cellCoord(p.Y)
	f.cellOf[id] = int32(cy*f.cols) + cx
	f.bumpReach(f.occIndex(int(cx), cy), 1)
	row := f.rows[cy]
	i := find(row, cx)
	if i < len(row) && row[i].cx == cx {
		row[i].count++
		return
	}
	row = append(row, noiseCell{}) // grows to the row's occupied-cell high-water mark, then is reused
	copy(row[i+1:], row[i:])
	row[i] = noiseCell{cx: cx, count: 1}
	f.rows[cy] = row
}

// txEnd retires one outstanding transmission from id.
func (f *noiseField) txEnd(id int) {
	f.txCount[id]--
	if f.txCount[id] != 0 {
		return
	}
	cy, cx := int(f.cellOf[id])/f.cols, f.cellOf[id]%int32(f.cols)
	f.bumpReach(f.occIndex(int(cx), cy), -1)
	row := f.rows[cy]
	i := find(row, cx)
	if row[i].count--; row[i].count == 0 {
		f.rows[cy] = append(row[:i], row[i+1:]...)
	}
}

// bumpReach adds by to farOcc in every cell the reach table puts around the
// cell at raster index at — one transmitter there entering (+1) or leaving
// (−1) the index.
//
//pqlint:noalloc
func (f *noiseField) bumpReach(at int, by int32) {
	for _, o := range f.reach {
		f.farOcc[at+o] += by
	}
}

// farMwAt returns the aggregated far-field interference power (milliwatts)
// at position p, which lies in the area: for every occupied cell fully
// outside the near field and inside the interference range, count times the
// power a transmitter at the cell center would deliver. A cell that no
// indexed transmitter can reach has nothing to add.
//
//pqlint:noalloc
func (f *noiseField) farMwAt(p geom.Point) float64 {
	if f.farOcc[f.occIndex(f.cellCoord(p.X), f.cellCoord(p.Y))] == 0 {
		return 0
	}
	// Every cell intersecting the square of half-width intfRange around p.
	minCX, maxCX := int32(f.cellCoord(p.X-f.intfRange)), int32(f.cellCoord(p.X+f.intfRange))
	minCY, maxCY := f.cellCoord(p.Y-f.intfRange), f.cellCoord(p.Y+f.intfRange)
	inner2 := f.innerRadius * f.innerRadius
	intf2 := f.intfRange * f.intfRange
	acc := 0.0
	for cy := minCY; cy <= maxCY; cy++ {
		row := f.rows[cy]
		if len(row) == 0 {
			continue
		}
		// Nearest point of the cell square to p, per axis.
		y0 := float64(cy) * f.cell
		dy := 0.0
		if p.Y < y0 {
			dy = y0 - p.Y
		} else if p.Y > y0+f.cell {
			dy = p.Y - y0 - f.cell
		}
		for _, oc := range row[find(row, minCX):] {
			if oc.cx > maxCX {
				break
			}
			x0 := float64(oc.cx) * f.cell
			dx := 0.0
			if p.X < x0 {
				dx = x0 - p.X
			} else if p.X > x0+f.cell {
				dx = p.X - x0 - f.cell
			}
			min2 := dx*dx + dy*dy
			if min2 <= inner2 || min2 > intf2 {
				continue
			}
			center := geom.Point{X: x0 + f.cell/2, Y: y0 + f.cell/2}
			acc += float64(oc.count) * f.d.ReceivedPowerMw(geom.Dist(p, center))
		}
	}
	return acc
}
