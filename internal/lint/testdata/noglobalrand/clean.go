package fixture

import "math/rand"

// drawSeeded consumes an explicitly plumbed source: the sanctioned idiom.
func drawSeeded(rng *rand.Rand, n int) int {
	return rng.Intn(n)
}

// newStream derives a source from a seed; constructing sources is legal
// (nowallclock rejects the seeds that differ per run: time.Now, os.Getpid).
func newStream(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}
