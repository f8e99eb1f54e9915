package b

// Grow is a declared cold path on a.hotStatic's chain.
func (t *Table) Grow() {
	t.rows = append(t.rows, nil) //pqlint:allow noalloc(fixture: grows to the row high-water mark once)
}
