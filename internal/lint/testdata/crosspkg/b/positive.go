// Package b is where the cross-package fixture's violations live; see
// package a for the roots that reach them.
package b

// Key indexes a Table's rows.
type Key int

// Table is the state package a's roots work on.
type Table struct {
	total int
	rows  [][]int
	marks []bool
}

// Scratch allocates: reached from a.hotStatic by a static call.
func Scratch(n int) []int {
	return make([]int, n)
}

// Put allocates: reached from a.hotIface through a's store interface.
func (t *Table) Put(k Key) {
	t.rows[k] = make([]int, k)
}

// Bump writes state every item of a parallel phase shares.
func (t *Table) Bump() {
	t.total++
}
