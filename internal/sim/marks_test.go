package sim

import (
	"math"
	"testing"
)

// TestMarks: a set holds what was added since its last Clear, and nothing
// before its first Add.
func TestMarks(t *testing.T) {
	m := NewMarks(6)
	for id := range 6 {
		if m.Has(id) {
			t.Fatalf("new set has %d", id)
		}
	}
	m.Add(1)
	m.Add(4)
	if !m.Has(1) || !m.Has(4) || m.Has(0) || m.Has(5) {
		t.Fatal("set after Add(1), Add(4) does not hold exactly 1 and 4")
	}
	m.Clear()
	m.Add(5)
	if m.Has(1) || m.Has(4) || !m.Has(5) {
		t.Fatal("Clear kept a member, or the next Add was lost")
	}
}

// TestMarksWrap: at its last generation a Clear wraps the counter, and no
// stamp of an earlier generation, however old, reads as a member after it.
func TestMarksWrap(t *testing.T) {
	m := NewMarks(4)
	m.Add(2) // stamped with the first generation, the one the wrap restarts at
	m.gen = math.MaxUint32
	m.Add(3)
	m.Clear()
	for id := range 4 {
		if m.Has(id) {
			t.Fatalf("after the wrap the set still has %d", id)
		}
	}
	m.Add(0)
	if !m.Has(0) || m.Has(2) {
		t.Fatal("set after the wrap does not hold exactly what was added")
	}
}
