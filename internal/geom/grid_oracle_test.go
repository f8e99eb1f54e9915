package geom

import (
	"math/rand"
	"sort"
	"testing"
)

// bruteWithin is the O(n) oracle: scan every present id and test the exact
// distance against the query radius.
func bruteWithin(present map[int]Point, p Point, radius float64) []int {
	r2 := radius * radius
	out := []int{}
	for id, q := range present {
		if Dist2(q, p) <= r2 {
			out = append(out, id)
		}
	}
	sort.Ints(out)
	return out
}

func sortedCopy(ids []int) []int {
	out := append([]int(nil), ids...)
	sort.Ints(out)
	return out
}

func equalIDs(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestGridWithinOracle property-tests Within against the brute-force oracle
// under random positions, updates, and removals, with query points placed
// randomly, on cell boundaries, and at the area corners, and radii from
// zero through the MaxQueryRadius sentinel.
func TestGridWithinOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.Intn(80)
		side := 50 + rng.Float64()*1500
		cellSize := side * (0.02 + rng.Float64()*1.2) // from tiny cells to one cell
		g := NewGrid(n, side, cellSize)
		present := map[int]Point{}
		hasOutside := false // out-of-area points can exceed MaxQueryRadius

		// Random churn: insert, move, and remove ids.
		steps := 3 * n
		for s := 0; s < steps; s++ {
			id := rng.Intn(n)
			switch {
			case rng.Float64() < 0.15 && len(present) > 0:
				g.Remove(id)
				delete(present, id)
			default:
				// Mostly in-area points; occasionally outside, which the
				// index clamps into the border cells but remembers exactly.
				p := Point{X: rng.Float64() * side, Y: rng.Float64() * side}
				if rng.Float64() < 0.1 {
					p.X += side * (rng.Float64() - 0.5)
					p.Y += side * (rng.Float64() - 0.5)
					hasOutside = true
				}
				g.Update(id, p)
				present[id] = p
			}
		}
		if g.Count() != len(present) {
			t.Fatalf("trial %d: Count=%d want %d", trial, g.Count(), len(present))
		}

		// The grid rounds the cell size so that whole cells tile the area.
		cols := max(int(side/min(cellSize, side)), 1)
		cs := side / float64(cols)
		queries := []Point{
			{X: rng.Float64() * side, Y: rng.Float64() * side},
			{X: 0, Y: 0}, {X: side, Y: side}, {X: 0, Y: side}, {X: side, Y: 0}, // corners
			{X: cs * float64(rng.Intn(cols)), Y: cs * float64(rng.Intn(cols))}, // cell corner
			{X: cs*float64(rng.Intn(cols)) + cs/2, Y: rng.Float64() * side},    // cell edge midline
		}
		radii := []float64{0, cs * 0.5, cs, cs * 1.7, side / 3, side, g.MaxQueryRadius()}
		var scratch []int
		for _, q := range queries {
			for _, r := range radii {
				got := sortedCopy(g.Within(q, r, scratch[:0]))
				want := bruteWithin(present, q, r)
				if !equalIDs(got, want) {
					t.Fatalf("trial %d: Within(%v, %g) = %v, oracle %v (n=%d side=%g cell=%g)",
						trial, q, r, got, want, n, side, cs)
				}
			}
			// The MaxQueryRadius sentinel must degenerate to a full scan
			// (guaranteed only when every point lies in the indexed area).
			if !hasOutside {
				all := sortedCopy(g.Within(q, g.MaxQueryRadius(), scratch[:0]))
				if len(all) != len(present) {
					t.Fatalf("trial %d: MaxQueryRadius query returned %d of %d ids", trial, len(all), len(present))
				}
			}
		}
	}
}
