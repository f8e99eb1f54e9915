package fixture

type cleanMachine struct {
	eng *Engine
	in  []float64
}

// run keeps a sharded phase legal without declaring anything: a pure helper
// on the path, a write to a local, and an effect deferred through Stage
// (which only stores the op: the walk ends there).
func (m *cleanMachine) run() {
	m.eng.ShardedEval(len(m.in), func(_, i int) {
		y := scale(m.in[i])
		y++
		m.eng.Stage(i, noop)
	})
}

// scale is a pure helper on the parallel path, checked because the callback
// above reaches it.
func scale(x float64) float64 {
	y := x * 2
	return y
}
