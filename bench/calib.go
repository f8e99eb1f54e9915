//pqlint:allow nowallclock(the reference clock times the harness's own laps and calibration bursts on the host; nothing simulated reads it)

package main

import (
	"math"
	"sort"
	"time"
)

// Host-speed calibration.
//
// The reference host is a shared virtual machine whose speed moves by 5–10 %
// from one tenth of a second to the next and by up to a third over tens of
// minutes (README.md, "Host time"). Wall time alone therefore cannot tell a
// slower program from a slower quarter of an hour. The harness measures both
// at once: every piece of timed work — a lap — is followed by a burst of a
// fixed calibration kernel, and a lap's host time is scaled by how long the
// bursts around it took relative to calibRefS, the time a burst takes on the
// reference host at its usual speed. The sum is host time in reference
// seconds: what the lap would have taken had the host kept that speed. On a
// host that does keep it the two clocks agree.
//
// The kernel is a miniature of the simulator's inner loop — take the earliest
// key from a binary heap, a square root and a logarithm, put a later key
// back — over 512 KiB, without allocation, so that it neither adds to the
// allocation figures nor speeds up and slows down with the collector, whose
// cost belongs to the program and must stay in the measurement.

const (
	calibHeapLen = 1 << 16
	calibIters   = 4000    // one burst: about 0.5 ms, 2 % of a timed slice
	calibRefS    = 0.00053 // seconds per burst on the reference host
	calibWindow  = 9       // a lap is scaled by the median of this many bursts around it
)

// refClock times laps of work in host seconds and in reference seconds.
type refClock struct {
	// raw leaves the bursts out, so that ref() equals wall(). The traced run
	// uses it: a CPU profile must not sample the calibration kernel, and its
	// host times are only ever compared with wall().
	raw   bool
	heap  []float64
	work  []float64 // host seconds of each lap
	burst []float64 // host seconds of the burst after each lap
	sink  float64
}

func newRefClock(raw bool) *refClock {
	c := &refClock{raw: raw}
	if !raw {
		c.heap = make([]float64, calibHeapLen)
		for i := range c.heap {
			c.heap[i] = float64(i) // an ascending array is a heap
		}
	}
	return c
}

// lap times f, then one calibration burst.
func (c *refClock) lap(f func()) {
	t0 := time.Now()
	f()
	t1 := time.Now()
	c.work = append(c.work, t1.Sub(t0).Seconds())
	if c.raw {
		return
	}
	c.sink += calibBurst(c.heap)
	c.burst = append(c.burst, time.Since(t1).Seconds())
}

// wall is the host time of the laps, bursts excluded.
func (c *refClock) wall() float64 {
	var s float64
	for _, w := range c.work {
		s += w
	}
	return s
}

// ref is the time of the laps in reference seconds.
func (c *refClock) ref() float64 {
	if c.raw {
		return c.wall()
	}
	var s float64
	window := make([]float64, 0, calibWindow)
	for i, w := range c.work {
		lo, hi := i-calibWindow/2, i+calibWindow/2+1
		if lo < 0 {
			lo = 0
		}
		if hi > len(c.burst) {
			hi = len(c.burst)
		}
		window = append(window[:0], c.burst[lo:hi]...)
		sort.Float64s(window)
		s += w * calibRefS / quantile(window, 0.5)
	}
	return s
}

// burstMedian is the median burst time: calibRefS when the host ran at the
// reference speed throughout.
func (c *refClock) burstMedian() float64 {
	return quantile(sortedCopy(c.burst), 0.5)
}

// calibBurst replaces the heap's smallest key calibIters times by a later
// one and returns a value that depends on all of them. The offsets come from
// a congruential generator and all the arithmetic is on the offset, never on
// the growing key, so that a burst costs the same at any age of the heap.
func calibBurst(h []float64) float64 {
	m := len(h)
	rnd := uint64(h[0]) | 1
	var sum float64
	for it := 0; it < calibIters; it++ {
		rnd = rnd*6364136223846793005 + 1442695040888963407
		off := float64(rnd >> 48) // [0, 65536)
		key := h[0] + 1 + math.Sqrt(off*off+float64(it&15)) + math.Log(off+2)
		sum += key
		i := 0
		for {
			l := 2*i + 1
			if l >= m {
				break
			}
			if r := l + 1; r < m && h[r] < h[l] {
				l = r
			}
			if h[l] >= key {
				break
			}
			h[i] = h[l]
			i = l
		}
		h[i] = key
	}
	return sum
}
