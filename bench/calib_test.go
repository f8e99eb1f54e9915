package main

import (
	"math"
	"testing"
)

func TestRefClockScalesLapsByTheBurstsAroundThem(t *testing.T) {
	// A host at half the reference speed for the first ten laps, at the
	// reference speed afterwards; one burst hit by an interrupt.
	c := &refClock{}
	for i := 0; i < 30; i++ {
		c.work = append(c.work, 1)
		if i < 10 {
			c.burst = append(c.burst, 2*calibRefS)
		} else {
			c.burst = append(c.burst, calibRefS)
		}
	}
	c.burst[20] = 50 * calibRefS
	if got := c.wall(); got != 30 {
		t.Fatalf("wall = %v, want 30", got)
	}
	// Laps 0..7 see only slow bursts, laps 10.. only fast ones; the two laps
	// at the edge see a majority of one kind each.
	if got, want := c.ref(), 10*0.5+20*1.0; math.Abs(got-want) > 1e-9 {
		t.Fatalf("ref = %v, want %v", got, want)
	}
}

func TestRawClockRunsNoBursts(t *testing.T) {
	c := newRefClock(true)
	c.lap(func() {})
	c.lap(func() {})
	if len(c.burst) != 0 || len(c.work) != 2 || c.ref() != c.wall() {
		t.Fatalf("raw clock: %d bursts, %d laps, ref %v, wall %v", len(c.burst), len(c.work), c.ref(), c.wall())
	}
}

func TestCalibBurstKeepsAHeapAndAllocatesNothing(t *testing.T) {
	c := newRefClock(false)
	if n := testing.AllocsPerRun(3, func() { c.sink += calibBurst(c.heap) }); n != 0 {
		t.Fatalf("a burst allocates %v times", n)
	}
	for i := 1; i < len(c.heap); i++ {
		if c.heap[(i-1)/2] > c.heap[i] {
			t.Fatalf("heap order broken at %d", i)
		}
	}
}
