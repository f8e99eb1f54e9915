package b

// Grow is a declared cold path on a.hotStatic's chain.
func (t *Table) Grow() {
	t.rows = append(t.rows, nil) //pqlint:allow noalloc(fixture: grows to the row high-water mark once)
}

// Mark writes the calling item's own slot.
func (t *Table) Mark(i int) {
	t.marks[i] = true //pqlint:allow parsafe(fixture: per-item slot; index i is private to one item)
}
