package fixture

import "math/rand"

type posMachine struct {
	eng    *Engine
	rng    *rand.Rand
	shared int
	in     []float64
	out    []float64
}

// run's callback breaks every parallel-phase rule: it mutates captured
// state, schedules an event, draws randomness, and its callee writes
// through the receiver.
func (m *posMachine) run() {
	m.eng.ShardedEval(len(m.in), func(_, i int) {
		m.shared++
		m.eng.Schedule(0, noop)
		_ = m.rng.Float64()
		m.store(i)
	})
}

// store is only reachable through the call graph; the write through the
// pointer receiver is the hazard.
func (m *posMachine) store(i int) {
	m.out[i] = m.in[i]
}
