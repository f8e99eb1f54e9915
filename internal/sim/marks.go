package sim

// Marks is a set of ids in [0, n), rebuilt for each use in time proportional
// to what is added: an id is a member while its stamp equals the set's
// generation, and Clear starts a new one. Its one rule (DESIGN.md §9): a
// Clear that overflows the generation zeroes every stamp and restarts, so a
// stamp written 2³² Clears ago never reads as a member.
type Marks struct {
	stamp []uint32
	gen   uint32
}

// NewMarks returns an empty set over ids [0, n).
func NewMarks(n int) Marks { return Marks{stamp: make([]uint32, n), gen: 1} }

// Clear empties the set.
func (m *Marks) Clear() {
	m.gen++
	if m.gen == 0 {
		clear(m.stamp)
		m.gen = 1
	}
}

// Add puts id in the set.
func (m *Marks) Add(id int) { m.stamp[id] = m.gen }

// Has reports whether id is in the set.
func (m *Marks) Has(id int) bool { return m.stamp[id] == m.gen }
