package fixture

type supMachine struct {
	eng     *Engine
	in      []float64
	out     []float64
	scratch [][]int
}

// run makes the two sanctioned shared writes of a parallel phase, each
// declared in place: scratch indexed by the shard argument, and the item's
// own result slot.
func (m *supMachine) run() {
	m.eng.ShardedEval(len(m.in), func(shard, i int) {
		m.scratch[shard] = append(m.scratch[shard], i) //pqlint:allow parsafe(per-shard scratch: one goroutine owns a shard index per phase)
		m.out[i] = scale(m.in[i])                      //pqlint:allow parsafe(per-item result slot; index i is private to one item)
	})
}
