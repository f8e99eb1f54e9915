package fixture

type supMachine struct {
	eng     *Engine
	counter int
	in      []float64
}

// run demonstrates an acknowledged violation silenced with a reasoned
// directive (a real fix would make the accumulator per-shard).
func (m *supMachine) run() {
	m.eng.ShardedEval(len(m.in), func(_, i int) {
		m.counter++ //pqlint:allow parsafe(fixture: acknowledged shared accumulator, folded serially in real code)
	})
}
