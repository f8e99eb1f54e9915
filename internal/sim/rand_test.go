package sim

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// countedSource counts the draws taken from a math/rand source.
type countedSource struct {
	rand.Source64
	n int
}

func (c *countedSource) Int63() int64   { c.n++; return c.Source64.Int63() }
func (c *countedSource) Uint64() uint64 { c.n++; return c.Source64.Uint64() }

// TestNewRandMatchesMathRand is NewRand's oracle: for edge seeds (zero, ±1,
// both sides of 2³¹−1, large negatives, the alias Seed gives a zero seed)
// and 200 random ones, a NewRand stream and rand.New(rand.NewSource(seed))
// return the same values through a mix of Int63, Uint64, Intn of powers of
// two and of other sizes, Float64 and Perm for at least 2 000 source draws,
// across the register's first wrap at draw 608; then both are re-seeded
// and compared as far again, so the kept register is rebuilt.
func TestNewRandMatchesMathRand(t *testing.T) {
	seeds := []int64{
		0, 1, -1, 2, lcgMod - 1, lcgMod, lcgMod + 1, 1 << 31, -(1 << 31),
		2 * lcgMod, -lcgMod, -1 << 40, -1<<62 + 12345, math.MinInt64, math.MinInt64 + 1,
		math.MaxInt64, zeroSeed, -zeroSeed,
	}
	pick := rand.New(rand.NewSource(20260))
	for i := 0; i < 200; i++ {
		seeds = append(seeds, int64(pick.Uint64()))
	}
	const draws = 2000
	for _, seed := range seeds {
		want := &countedSource{Source64: rand.NewSource(seed).(rand.Source64)}
		got, ref := NewRand(seed), rand.New(want)
		compareDraws(t, seed, got, ref, want, pick, draws)
		reseed := int64(pick.Uint64())
		got.Seed(reseed)
		ref.Seed(reseed)
		want.n = 0
		compareDraws(t, reseed, got, ref, want, pick, draws)
	}
}

// compareDraws draws from got and ref alike, in an order pick chooses, until
// ref's source has given n draws, and fails at the first difference.
func compareDraws(t *testing.T, seed int64, got, ref *rand.Rand, src *countedSource, pick *rand.Rand, n int) {
	t.Helper()
	for op := 0; src.n < n; op++ {
		var g, w any
		switch k := pick.Intn(7); k {
		case 0:
			g, w = got.Int63(), ref.Int63()
		case 1:
			g, w = got.Uint64(), ref.Uint64()
		case 2:
			m := 1 << pick.Intn(40)
			g, w = got.Intn(m), ref.Intn(m)
		case 3:
			m := 1 + pick.Intn(1000)
			g, w = got.Intn(m), ref.Intn(m)
		case 4:
			m := 1 + pick.Int63n(1<<40)
			g, w = got.Int63n(m), ref.Int63n(m)
		case 5:
			g, w = got.Float64(), ref.Float64()
		case 6:
			m := pick.Intn(12)
			g, w = got.Perm(m), ref.Perm(m)
		}
		if !reflect.DeepEqual(g, w) {
			t.Fatalf("seed %d, op %d after %d source draws: NewRand gives %v, math/rand %v", seed, op, src.n, g, w)
		}
	}
}

// TestNewRandFirstDrawsAllocFree pins what makes a stream cheap: once built,
// NewRand's first rngLen draws allocate nothing (the register comes at the
// next one), and a re-seeded source draws past the wrap on the register it
// kept.
func TestNewRandFirstDrawsAllocFree(t *testing.T) {
	r := NewRand(7)
	if a := testing.AllocsPerRun(20, func() {
		r.Seed(7)
		for i := 0; i < rngLen; i++ {
			r.Uint64()
		}
	}); a != 0 {
		t.Fatalf("the first %d draws allocate %.1f objects, want 0", rngLen, a)
	}
	r.Uint64() // builds the register
	if a := testing.AllocsPerRun(20, func() {
		r.Seed(8)
		for i := 0; i < 2*rngLen; i++ {
			r.Uint64()
		}
	}); a != 0 {
		t.Fatalf("re-seeded draws past the wrap allocate %.1f objects, want 0", a)
	}
}
