//pqlint:allow nowallclock(edge fixture: wall-clock reads here are demo-only)
package fixture

import (
	"math/rand"
	"time"
)

type sched struct{}

func (s *sched) Schedule(delay float64, fn func()) {}

func noop2() {}

func pick(ms []map[int]float64, i int) map[int]float64 { return ms[i] }

// edgeBoth trips detrange and noglobalrand on one line; a single comment
// carrying two directives must silence both.
func edgeBoth(ms []map[int]float64, s *sched) float64 {
	total := 0.0
	//pqlint:allow detrange(edge fixture: schedule order is idempotent here) //pqlint:allow noglobalrand(edge fixture: demo draw picks the map)
	for k, v := range pick(ms, rand.Intn(len(ms))) {
		s.Schedule(float64(k), noop2)
		total += v
	}
	return total
}

// edgeClock is covered by the file-wide nowallclock directive above; the
// line-scope directive below additionally covers the noglobalrand hit on
// the same line, exercising file-scope + line-scope interplay.
func edgeClock() int64 {
	return time.Now().UnixNano() + rand.Int63() //pqlint:allow noglobalrand(edge fixture: demo draw)
}

type node2 struct{ val int }

// refillEdge is a pqlint:noalloc-annotated declaration whose body carries
// an allow directive: annotations and suppression directives compose.
//
//pqlint:noalloc
func refillEdge(free []*node2) []*node2 {
	return append(free, &node2{}) //pqlint:allow noalloc(edge fixture: demo cold path)
}
