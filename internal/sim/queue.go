package sim

// Queue is a FIFO on a reused array. Every queue in the simulator keeps one
// rule (DESIGN.md §9): entries leave in the order they came, and Pop zeroes
// the slot it vacates; the array is reset when the queue empties, and a Push
// that finds it full copies the live entries down when at least half of it
// is popped, and grows it otherwise. So the array grows only while more than
// half of it is live, an entry is copied O(1) times on average, and at
// steady state neither Push nor Pop allocates. The zero value is an empty
// queue.
type Queue[T any] struct {
	buf  []T // buf[head:] are the entries, oldest first; buf[:head] are zero
	head int
}

// Len returns the number of entries.
func (q *Queue[T]) Len() int { return len(q.buf) - q.head }

// Front returns the oldest entry in place. The queue must not be empty.
func (q *Queue[T]) Front() *T { return &q.buf[q.head] }

// Items returns the entries, oldest first. The slice aliases the queue and is
// valid until its next Push or Pop.
func (q *Queue[T]) Items() []T { return q.buf[q.head:] }

// Pop removes the oldest entry and returns it. The queue must not be empty.
func (q *Queue[T]) Pop() T {
	x := q.buf[q.head]
	var zero T
	q.buf[q.head] = zero
	q.head++
	if q.head == len(q.buf) {
		q.buf, q.head = q.buf[:0], 0
	}
	return x
}

// Push adds x after every entry.
func (q *Queue[T]) Push(x T) {
	if len(q.buf) == cap(q.buf) && q.head > 0 && 2*q.head >= len(q.buf) {
		n := copy(q.buf, q.buf[q.head:])
		clear(q.buf[n:])
		q.buf, q.head = q.buf[:n], 0
	}
	q.buf = append(q.buf, x) //pqlint:allow noalloc(queue growth: the array grows only while more than half of it is live)
}
