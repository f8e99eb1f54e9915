package sim

import (
	"math/rand"
	"testing"
)

// checkQueue holds q to want, its entries oldest first, and checks that every
// slot outside the live entries is zero.
func checkQueue(t *testing.T, step int, q *Queue[int32], want []int32) {
	t.Helper()
	if q.Len() != len(want) {
		t.Fatalf("step %d: Len = %d, want %d", step, q.Len(), len(want))
	}
	items := q.Items()
	for i := range want {
		if items[i] != want[i] {
			t.Fatalf("step %d: Items = %v, want %v", step, items, want)
		}
	}
	if len(want) > 0 && *q.Front() != want[0] {
		t.Fatalf("step %d: Front = %d, want %d", step, *q.Front(), want[0])
	}
	for i, x := range q.buf[:q.head] {
		if x != 0 {
			t.Fatalf("step %d: popped slot %d still holds %d", step, i, x)
		}
	}
	for i, x := range q.buf[len(q.buf):cap(q.buf)] {
		if x != 0 {
			t.Fatalf("step %d: free slot %d holds %d", step, len(q.buf)+i, x)
		}
	}
}

// TestQueueFIFO: under interleaved Pushes and Pops, including runs that pop
// an entry and push it straight back while draining (as the index's refresh
// does), entries leave in the order they came.
func TestQueueFIFO(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var q Queue[int32]
	var want []int32
	next := int32(1)
	for step := 0; step < 20000; step++ {
		switch r := rng.Intn(10); {
		case r < 4:
			q.Push(next)
			want = append(want, next)
			next++
		case r < 8:
			if len(want) > 0 {
				if got := q.Pop(); got != want[0] {
					t.Fatalf("step %d: Pop = %d, want %d", step, got, want[0])
				}
				want = want[1:]
			}
		default:
			// Drain a prefix, pushing each popped entry back behind the rest.
			for k := rng.Intn(len(want) + 1); k > 0; k-- {
				x := *q.Front()
				if got := q.Pop(); got != x {
					t.Fatalf("step %d: Pop = %d, Front said %d", step, got, x)
				}
				q.Push(x)
				want = append(want[1:], x)
			}
		}
		checkQueue(t, step, &q, want)
	}
}

// TestQueueArrayBound: the array grows only while it is under twice the
// queue's high-water mark, whatever the mix of Pushes and Pops: a full array
// at least half popped is copied down instead, so a queue whose length is
// bounded settles on one array.
func TestQueueArrayBound(t *testing.T) {
	for _, pushShare := range []int{30, 50, 70} {
		rng := rand.New(rand.NewSource(int64(pushShare)))
		var q Queue[int32]
		high := 0
		for step := 0; step < 50000; step++ {
			before := cap(q.buf)
			if q.Len() > 0 && rng.Intn(100) >= pushShare {
				q.Pop()
			} else {
				q.Push(int32(step + 1))
			}
			high = max(high, q.Len())
			if cap(q.buf) != before && before >= 2*high {
				t.Fatalf("push share %d%%, step %d: an array of %d grew at a high-water mark of %d", pushShare, step, before, high)
			}
		}
	}
}

// TestQueueSteadyStateAllocFree: once the array has grown to its high-water
// mark, a Push/Pop pair allocates nothing, on a scalar and on a lane entry.
func TestQueueSteadyStateAllocFree(t *testing.T) {
	var ids Queue[int32]
	for i := range int32(5) {
		ids.Push(i)
	}
	if avg := testing.AllocsPerRun(200, func() { ids.Push(ids.Pop()) }); avg != 0 {
		t.Fatalf("an int32 Push/Pop pair allocates %.2f objects, want 0", avg)
	}
	var lane Queue[laneEntry]
	fn := func() {}
	for i := range 5 {
		lane.Push(laneEntry{time: float64(i), fn: fn})
	}
	if avg := testing.AllocsPerRun(200, func() { lane.Push(lane.Pop()) }); avg != 0 {
		t.Fatalf("a lane-entry Push/Pop pair allocates %.2f objects, want 0", avg)
	}
}
