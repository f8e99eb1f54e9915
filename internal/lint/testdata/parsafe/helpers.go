package fixture

// Engine mimics sim.Engine's parallel API shape: parsafe finds roots by
// call-site shape (a method named ShardedEval taking
// (int, func(shard, i int))), so the fixture needs no dependency on
// internal/sim.
type Engine struct{}

// ShardedEval runs fn for every index, as the real engine does serially.
func (e *Engine) ShardedEval(n int, fn func(shard, i int)) {
	for i := 0; i < n; i++ {
		fn(0, i)
	}
}

// Stage mimics the sharded phase's deferred-effect boundary: like the real
// engine's Stage it stores op and calls nothing, so the parsafe walk ends
// here — the deferred ops run serially at the commit barrier.
func (e *Engine) Stage(item int, op func()) {}

// Schedule mimics the engine's event scheduling entry point.
func (e *Engine) Schedule(delay float64, fn func()) {}

func noop() {}
