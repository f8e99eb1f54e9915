package geom

import "math"

// Grid is a uniform-cell spatial index over a fixed set of ids with
// updatable positions. It answers "which ids are within radius of p" without
// scanning the full id set. Positions may go slightly stale between updates;
// callers that tolerate staleness should pad the query radius accordingly.
type Grid struct {
	side     float64
	cellSize float64
	cols     int
	cells    [][]int32 // cell -> ids
	where    []int     // id -> cell index, -1 if absent
	pos      []Point   // id -> last indexed position
}

// NewGrid creates an index over ids 0..n-1 in a side×side area, with cells
// of approximately cellSize (clamped so there is at least one cell).
func NewGrid(n int, side, cellSize float64) *Grid {
	if cellSize <= 0 || cellSize > side {
		cellSize = side
	}
	cols := int(side / cellSize)
	if cols < 1 {
		cols = 1
	}
	g := &Grid{
		side:     side,
		cellSize: side / float64(cols),
		cols:     cols,
		cells:    make([][]int32, cols*cols),
		where:    make([]int, n),
		pos:      make([]Point, n),
	}
	for i := range g.where {
		g.where[i] = -1
	}
	return g
}

func (g *Grid) cellIndex(p Point) int {
	cx := int(p.X / g.cellSize)
	cy := int(p.Y / g.cellSize)
	cx = clampInt(cx, 0, g.cols-1)
	cy = clampInt(cy, 0, g.cols-1)
	return cy*g.cols + cx
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Update records id at position p, moving it between cells as needed.
func (g *Grid) Update(id int, p Point) {
	g.pos[id] = p
	ci := g.cellIndex(p)
	if old := g.where[id]; old == ci {
		return
	} else if old >= 0 {
		g.removeFromCell(id, old)
	}
	g.cells[ci] = append(g.cells[ci], int32(id)) //pqlint:allow noalloc(a cell's list grows to its occupancy high-water mark and is reused from there; TestTransmitAllocsBounded pins the steady state at zero)
	g.where[id] = ci
}

// Remove deletes id from the index (e.g. a crashed node).
func (g *Grid) Remove(id int) {
	if ci := g.where[id]; ci >= 0 {
		g.removeFromCell(id, ci)
		g.where[id] = -1
	}
}

func (g *Grid) removeFromCell(id, ci int) {
	cell := g.cells[ci]
	for i, v := range cell {
		if int(v) == id {
			cell[i] = cell[len(cell)-1]
			g.cells[ci] = cell[:len(cell)-1]
			return
		}
	}
}

// Position returns the last indexed position of id.
func (g *Grid) Position(id int) Point { return g.pos[id] }

// cellBox returns the inclusive cell-coordinate bounds of every cell
// intersecting the axis-aligned square of half-width radius around p.
func (g *Grid) cellBox(p Point, radius float64) (minCX, maxCX, minCY, maxCY int) {
	minCX = clampInt(int((p.X-radius)/g.cellSize), 0, g.cols-1)
	maxCX = clampInt(int((p.X+radius)/g.cellSize), 0, g.cols-1)
	minCY = clampInt(int((p.Y-radius)/g.cellSize), 0, g.cols-1)
	maxCY = clampInt(int((p.Y+radius)/g.cellSize), 0, g.cols-1)
	return
}

// Within appends to out all indexed ids whose last indexed position lies
// within radius of p (inclusive), and returns the extended slice. The point
// set is treated as lying in the plane (no wraparound), matching the
// simulated deployment area.
func (g *Grid) Within(p Point, radius float64, out []int) []int {
	r2 := radius * radius
	minCX, maxCX, minCY, maxCY := g.cellBox(p, radius)
	for cy := minCY; cy <= maxCY; cy++ {
		for cx := minCX; cx <= maxCX; cx++ {
			for _, id := range g.cells[cy*g.cols+cx] {
				if Dist2(g.pos[id], p) <= r2 {
					out = append(out, int(id))
				}
			}
		}
	}
	return out
}

// Count returns the number of indexed ids.
func (g *Grid) Count() int {
	n := 0
	for _, c := range g.cells {
		n += len(c)
	}
	return n
}

// MaxQueryRadius returns the diameter of the indexed area (side·√2). A
// Query at or beyond this radius from any in-area point covers every cell,
// so it degenerates to a full scan and always returns all present ids;
// callers can use it as a "no radius limit" sentinel. Queries stop gaining
// from the index well before this — beyond ~half the side most cells are
// visited anyway.
func (g *Grid) MaxQueryRadius() float64 { return g.side * math.Sqrt2 }
