package sim

import "testing"

type poolRec struct{ id int }

// countingPool returns a pool whose New numbers the records it makes, and
// the count of New calls so far.
func countingPool() (*Pool[*poolRec], *int) {
	made := 0
	p := &Pool[*poolRec]{New: func() *poolRec {
		made++
		return &poolRec{id: made}
	}}
	return p, &made
}

// TestPoolLIFO: Get returns the record Put last, and the slot it vacates no
// longer holds it.
func TestPoolLIFO(t *testing.T) {
	p, _ := countingPool()
	a, b, c := p.Get(), p.Get(), p.Get()
	p.Put(a)
	p.Put(b)
	p.Put(c)
	for i, want := range []*poolRec{c, b, a} {
		if got := p.Get(); got != want {
			t.Fatalf("Get %d returned record %d, want %d", i, got.id, want.id)
		}
	}
	for i, x := range p.free[:cap(p.free)] {
		if x != nil {
			t.Fatalf("vacated slot %d still holds record %d", i, x.id)
		}
	}
}

// TestPoolNewOnlyWhenEmpty: New runs once per Get on an empty list and never
// while a record is on it.
func TestPoolNewOnlyWhenEmpty(t *testing.T) {
	p, made := countingPool()
	x := p.Get()
	if *made != 1 {
		t.Fatalf("New ran %d times for the first Get, want 1", *made)
	}
	p.Put(x)
	if y := p.Get(); y != x || *made != 1 {
		t.Fatalf("Get with a record on the list ran New (%d calls) or missed the record", *made)
	}
	p.Get()
	if *made != 2 {
		t.Fatalf("New ran %d times after a Get on an empty list, want 2", *made)
	}
	if p.Len() != 0 {
		t.Fatalf("Len = %d with every record out, want 0", p.Len())
	}
}

// TestPoolSteadyStateAllocFree: once the list has grown to its high-water
// mark, a Get/Put pair allocates nothing.
func TestPoolSteadyStateAllocFree(t *testing.T) {
	p, made := countingPool()
	p.Put(p.Get())
	if avg := testing.AllocsPerRun(200, func() { p.Put(p.Get()) }); avg != 0 {
		t.Fatalf("a Get/Put pair allocates %.2f objects at steady state, want 0", avg)
	}
	if *made != 1 {
		t.Fatalf("New ran %d times, want 1", *made)
	}
}
