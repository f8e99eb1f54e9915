package fixture

// Test files are exempt from detrange: a test may fire callbacks in map
// order when it asserts only on what is order-free.
func fireAll(m map[int]func(), e engine) {
	for _, fn := range m {
		e.Schedule(0, fn)
	}
}
