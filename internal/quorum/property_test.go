package quorum

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// Property: SizeForEpsilon always satisfies Corollary 5.3 and its bound
// check, for any sane (n, ε, ratio).
func TestSizingProperty(t *testing.T) {
	f := func(nRaw uint16, epsRaw, ratioRaw uint8) bool {
		n := int(nRaw)%5000 + 2
		eps := 0.01 + float64(epsRaw%90)/100.0 // (0.01, 0.91)
		ratio := 0.1 + float64(ratioRaw%50)/10.0
		qa, ql := SizeForEpsilon(n, eps, ratio)
		if qa < 1 || ql < 1 {
			return false
		}
		if float64(qa*ql) < float64(n)*math.Log(1/eps)-1e-9 {
			return false
		}
		return NonIntersectProb(n, qa, ql) <= eps+1e-12
	}
	cfg := &quick.Config{MaxCount: 1000, Rand: rand.New(rand.NewSource(17))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: the store never loses owner status, never invents entries, and
// Len stays consistent under arbitrary Put sequences.
func TestStoreProperty(t *testing.T) {
	type op struct {
		Key   uint8
		Value uint8
		Owner bool
	}
	f := func(ops []op) bool {
		st := NewStore()
		owners := map[string]bool{}
		present := map[string]bool{}
		for _, o := range ops {
			key := string(rune('a' + o.Key%8))
			st.Put(key, string(rune('0'+o.Value%10)), o.Owner)
			present[key] = true
			if o.Owner {
				owners[key] = true
			}
			// Invariants.
			if st.Len() != len(present) {
				return false
			}
			for k := range present {
				if st.Owner(k) != owners[k] {
					return false
				}
				if _, ok := st.Get(k); !ok {
					return false
				}
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(19))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: the walk invariant Unique == |set(Visited)| is preserved by
// the handleWalk visited-list update rule.
func TestWalkUniqueInvariant(t *testing.T) {
	f := func(hops []uint8) bool {
		visited := []int{0}
		unique := 1
		seen := map[int]bool{0: true}
		for _, h := range hops {
			u := int(h % 16)
			// replicate handleWalk's update
			revisit := false
			for _, v := range visited {
				if v == u {
					revisit = true
					break
				}
			}
			visited = append(visited, u)
			if !revisit {
				unique++
			}
			seen[u] = true
			if unique != len(seen) {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(23))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: LookupSizeFor meets its intersection target against the 2√n
// advertise quorum for every n in the paper's range.
func TestLookupSizeForProperty(t *testing.T) {
	for n := 20; n <= 2000; n += 17 {
		for _, p := range []float64{0.5, 0.8, 0.9, 0.95, 0.99} {
			ql := LookupSizeFor(n, p)
			got := 1 - NonIntersectProb(n, AdvertiseSizeDefault(n), ql)
			if got < p-1e-9 {
				t.Fatalf("n=%d target=%v: achieved %v with ql=%d", n, p, got, ql)
			}
		}
	}
}

// Property: the reply-path reduction never increases the hop index and the
// chosen index is always a current neighbor or the default predecessor.
func TestPathReductionMonotonic(t *testing.T) {
	// Structural check on the selection rule, mirrored from forwardReply.
	f := func(pathRaw []uint8, nbsRaw []uint8, idxRaw uint8) bool {
		if len(pathRaw) < 2 {
			return true
		}
		path := make([]int, len(pathRaw))
		for i, v := range pathRaw {
			path[i] = int(v % 32)
		}
		idx := int(idxRaw)%(len(path)-1) + 1
		nbset := map[int]bool{}
		for _, v := range nbsRaw {
			nbset[int(v%32)] = true
		}
		j := idx - 1
		for i := 0; i < j; i++ {
			if nbset[path[i]] {
				j = i
				break
			}
		}
		if j > idx-1 {
			return false // must never move away from the origin
		}
		if j != idx-1 && !nbset[path[j]] {
			return false // a skip must target a neighbor
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(29))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}
