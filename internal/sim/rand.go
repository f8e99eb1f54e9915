package sim

import "math/rand"

// NewRand returns a random stream that equals rand.New(rand.NewSource(seed))
// draw for draw, for every method of *rand.Rand and after any Seed, but
// seeds in O(1) and holds no register until its 608th draw.
//
// math/rand's source is an additive lagged-Fibonacci generator over a
// 607-word register (lags 607 and 273) that Seed fills from a
// Lehmer LCG (x ← 48271·x mod 2³¹−1) mixed with 607 "cooked" constants:
// 5 KB and about 14 µs per stream. Most of the simulator's streams are one
// back-off stream per DCF and one per waypoint node, and at scale nearly all
// of them are drawn, but fewer than 608 times: of scale-sinr-churn's 10 000
// DCF streams 27 are never drawn, 9 973 drawn 1–607 times (median 16) and
// none more (DESIGN §12 has the other workloads). Before the register's
// first wrap, draw k is the sum of at most four register entries, and entry
// i is a pure function of the seed: the LCG jumped 21+3i steps, mixed as
// Seed mixes it, XOR cooked constant i. So the first 607 draws are computed
// from the seed alone; the 608th builds the register once and runs
// math/rand's own recurrence from there on. TestNewRandMatchesMathRand is
// the oracle.
func NewRand(seed int64) *rand.Rand {
	s := new(source)
	s.Seed(seed)
	return rand.New(s)
}

const (
	rngLen  = 607             // math/rand's register length (the long lag)
	rngTap  = 273             // its short lag
	rngFeed = rngLen - rngTap // where Seed leaves the feed index
	rngMask = 1<<63 - 1

	lcgMod   = 1<<31 - 1 // the seed LCG's modulus, a Mersenne prime
	lcgMul   = 48271     // its multiplier
	zeroSeed = 89482311  // what Seed uses for a seed ≡ 0 (mod lcgMod)
)

// seedTab holds, per register entry i, the LCG's multiplier raised to the
// three steps Seed takes for that entry (21+3i, 22+3i, 23+3i) and math/rand's
// cooked constant i. It is filled once at init and only read after.
var seedTab [rngLen]struct {
	pow    [3]uint32
	cooked int64
}

func init() {
	p := uint64(1)
	for n := 1; n <= 20; n++ {
		p = mulMod(p, lcgMul)
	}
	for i := range seedTab {
		for j := range seedTab[i].pow {
			p = mulMod(p, lcgMul)
			seedTab[i].pow[j] = uint32(p)
		}
	}

	// The cooked constants are math/rand's, recovered from one of its
	// sources rather than copied: its first rngLen draws determine the
	// seeded register (draws rngTap+1… give the entries under the feed
	// index as differences of two draws, and those give the rest), and an
	// entry XOR its LCG mix is the constant. cooked is still zero here, so
	// entry returns the bare mix.
	const probe = 1
	src := rand.NewSource(probe).(rand.Source64)
	var x [rngLen + 1]int64 // x[k] is draw k, from 1
	for k := 1; k <= rngLen; k++ {
		x[k] = int64(src.Uint64())
	}
	var reg [rngLen]int64
	for k := rngTap + 1; k <= rngLen; k++ {
		reg[feedAt(k)] = x[k] - x[k-rngTap]
	}
	for k := 1; k <= rngTap; k++ {
		reg[feedAt(k)] = x[k] - reg[rngLen-k]
	}
	for i := range seedTab {
		seedTab[i].cooked = reg[i] ^ entry(probe, i)
	}
}

// mulMod returns a·b mod lcgMod for a, b < 2³¹. Neither operand is ever
// ≡ 0, so the result lies in [1, lcgMod−1], where math/rand's seedrand
// leaves it.
func mulMod(a, b uint64) uint64 { return a * b % lcgMod }

// entry returns register entry i as Seed fills it for the LCG start value
// x0 (the seed Seed has reduced).
func entry(x0 uint64, i int) int64 {
	t := &seedTab[i]
	return int64(mulMod(x0, uint64(t.pow[0])))<<40 ^
		int64(mulMod(x0, uint64(t.pow[1])))<<20 ^
		int64(mulMod(x0, uint64(t.pow[2]))) ^ t.cooked
}

// feedAt is the register index draw k (from 1, at most rngLen) writes: the
// feed index steps down from rngFeed and wraps once.
func feedAt(k int) int {
	f := rngFeed - k
	if f < 0 {
		f += rngLen
	}
	return f
}

// source is the rand.Source64 behind NewRand.
type source struct {
	x0 uint64 // the LCG start value, as Seed reduces the seed
	// n counts the draws taken, up to rngLen+1, the draw that builds vec;
	// past rngLen, vec is live.
	n         int
	tap, feed int
	vec       *[rngLen]int64 // the register, built at draw rngLen+1 and kept across Seed
}

// Seed restarts the stream at seed, as math/rand's Seed does, in O(1). A
// built register is kept for reuse.
func (s *source) Seed(seed int64) {
	seed %= lcgMod
	if seed < 0 {
		seed += lcgMod
	}
	if seed == 0 {
		seed = zeroSeed
	}
	s.x0, s.n = uint64(seed), 0
}

// Int63 and Uint64 each hold the live register's step in their own body, so
// a draw past the first rngLen costs one call, as math/rand's does
// (make inline-check holds step inlinable). They are
// the roots of the draw path's noalloc walk; build's register is its one
// allocation.
//
//pqlint:noalloc
func (s *source) Int63() int64 {
	if s.n > rngLen {
		return s.step() & rngMask
	}
	return s.first() & rngMask
}

//pqlint:noalloc
func (s *source) Uint64() uint64 {
	if s.n > rngLen {
		return uint64(s.step())
	}
	return uint64(s.first())
}

// first takes one of the first rngLen+1 draws: from the seed alone, or, at
// draw rngLen+1, from the register it builds.
func (s *source) first() int64 {
	s.n++
	if s.n <= rngLen {
		return s.early(s.n)
	}
	s.build()
	return s.step()
}

// early returns draw k (from 1, at most rngLen) from the seed alone. Draw k
// adds the entry under its feed index, which no earlier draw wrote, to the
// one under its tap index, which draw k−rngTap wrote when k > rngTap.
func (s *source) early(k int) int64 {
	var x int64
	for ; k > rngTap; k -= rngTap {
		x += entry(s.x0, feedAt(k))
	}
	return x + entry(s.x0, feedAt(k)) + entry(s.x0, rngLen-k)
}

// build fills the register as math/rand's Seed does and takes its first
// rngLen steps, which leaves vec, tap and feed where math/rand's stand after
// rngLen draws.
func (s *source) build() {
	if s.vec == nil {
		s.vec = new([rngLen]int64) //pqlint:allow noalloc(one register per stream, at its first draw past rngLen, kept across Seed)
	}
	for i := range s.vec {
		s.vec[i] = entry(s.x0, i)
	}
	s.tap, s.feed = 0, rngFeed
	for i := 0; i < rngLen; i++ {
		s.step()
	}
}

// step is math/rand's recurrence: one draw from the live register.
func (s *source) step() int64 {
	tap, feed := s.tap-1, s.feed-1
	if tap < 0 {
		tap += rngLen
	}
	if feed < 0 {
		feed += rngLen
	}
	x := s.vec[feed] + s.vec[tap]
	s.vec[feed] = x
	s.tap, s.feed = tap, feed
	return x
}
