package fixture

type cleanMachine struct {
	eng     *Engine
	in      []float64
	out     []float64
	scratch [][]int
}

// run keeps a sharded phase legal: a declared per-shard scratch write, a
// declared per-item result slot, a pure helper on the path, and an effect
// deferred through Stage (the annotated boundary the walk stops at).
func (m *cleanMachine) run() {
	m.eng.ShardedEval(len(m.in), func(shard, i int) {
		m.scratch[shard] = append(m.scratch[shard], i) //pqlint:parshared(per-shard scratch: one goroutine owns a shard index per phase)
		m.out[i] = scale(m.in[i])                      //pqlint:parshared(per-item result slot; index i is private to one item)
		m.eng.Stage(i, noop)
	})
}

// scale is a pure helper on the parallel path, checked because the callback
// above reaches it.
func scale(x float64) float64 {
	y := x * 2
	return y
}
