package main

import (
	"math/rand"
	"sort"
)

// arrival is one operation offered to the program. It is everything the
// program learns about the load: when, from whom, which key, read or write.
type arrival struct {
	at     float64 // simulated seconds from the start of the issue window
	origin float64 // in [0,1): names a node among those able to issue at that time
	key    int     // rank in the key space
	write  bool
}

// schedule generates the open-loop arrival process for one run: a Poisson
// process of the given length conditioned on its count (count order
// statistics of the uniform distribution), of which a fixed number — the
// write share of the count — are writes. Reads draw Zipf(1.2) keys. Writes
// are a balanced design: the op sequence is cut into as many equal blocks as
// there are writes, one write falls at a random position of each block, and
// the keys written run through one random permutation of the key space after
// another, so that every item is updated equally often (to within one write)
// and it is the readers that concentrate on the popular ones. A write adds
// replicas of its key, so which keys happen to be written, and how early,
// decides how long later lookups walk: with independent draws that luck alone
// moved the latency figures by 9 % between seeds, whatever the number of
// lookups. All counts are fixed so that every seed offers the same amount of
// work. The schedule depends on seed alone, never on the stack it will be
// offered to, so two programs given the same seed face the same load.
func schedule(seed int64, count int, window float64, keys int, writeShare float64) []arrival {
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, 1.2, 8, uint64(keys-1))
	out := make([]arrival, count)
	for i := range out {
		out[i] = arrival{at: rng.Float64() * window, origin: rng.Float64(), key: int(zipf.Uint64())}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].at < out[j].at })
	writes := int(writeShare*float64(count) + 0.5)
	var order []int
	for w := 0; w < writes; w++ {
		if len(order) == 0 {
			order = rng.Perm(keys)
		}
		lo, hi := w*count/writes, (w+1)*count/writes
		i := lo + rng.Intn(hi-lo)
		out[i].write = true
		out[i].key, order = order[0], order[1:]
	}
	return out
}

// pickOrigin maps an arrival's origin draw onto a node that can issue an
// operation right now: the node the draw names, or the next id after it that
// is eligible (an O(n) list of the eligible per arrival would dominate the
// small-op workloads).
func pickOrigin(n int, eligible func(id int) bool, u float64) int {
	id := int(u * float64(n))
	for k := 0; k < n; k++ {
		if c := (id + k) % n; eligible(c) {
			return c
		}
	}
	return id % n
}

// mainPart marks the nodes of the largest connected part of the neighbour
// graph. A random geometric graph of average degree 10 leaves a few nodes in
// small pockets cut off from the rest; no quorum system can serve them (the
// paper assumes a connected network), and a lookup issued there walks until
// its step cap, copying its visited list at every step — a handful of such
// operations would decide a run's allocation and time figures.
func mainPart(n int, alive func(id int) bool, neighbors func(id int) []int) []bool {
	part := make([]int, n) // 0 = unvisited
	var best, bestSize int
	var queue []int
	for root := 0; root < n; root++ {
		if part[root] != 0 || !alive(root) {
			continue
		}
		id := root + 1
		part[root] = id
		queue = append(queue[:0], root)
		size := 0
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			size++
			for _, v := range neighbors(u) {
				if part[v] == 0 && alive(v) {
					part[v] = id
					queue = append(queue, v)
				}
			}
		}
		if size > bestSize {
			best, bestSize = id, size
		}
	}
	in := make([]bool, n)
	for i, p := range part {
		in[i] = p == best && best != 0
	}
	return in
}
