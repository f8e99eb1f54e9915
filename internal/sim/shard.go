package sim

import "sync"

// Sharded execution (DESIGN.md §15) — the engine's one parallel phase.
//
// This simulation's media have zero cross-node lookahead (a transmission
// mutates remote receiver state at the timestamp it is issued), so the safe
// parallel unit is not a partition of the event loop but a phase *inside*
// one event: coarse independent items (whole graph traversals) fanned out
// between two barriers, with every engine-visible effect deferred to a
// serial commit. ShardedEval splits the items [0, n) into `shards`
// contiguous chunks; chunk s is walked in ascending order by one goroutine,
// which therefore owns the caller's scratch slot s, and effects filed with
// Stage run after the barrier in ascending item order. Which chunk an item
// lands in is unobservable, so a run is bit-identical at any width,
// including zero.

// shardTask is one chunk of a phase: items [start, end) owned by shard.
type shardTask struct {
	fn                func(shard, i int)
	shard, start, end int
}

// shardPool is the fixed goroutine set draining shardTasks; it exists only
// between the first fanned-out ShardedEval and StopWorkers.
type shardPool struct {
	tasks chan shardTask
	wg    sync.WaitGroup // reused across phases: no per-call alloc
}

func newShardPool(size int) *shardPool {
	// Buffer one task per shard so dispatch never blocks behind workers.
	p := &shardPool{tasks: make(chan shardTask, size)}
	for w := 0; w < size; w++ {
		go func() {
			for t := range p.tasks {
				for i := t.start; i < t.end; i++ {
					t.fn(t.shard, i)
				}
				p.wg.Done()
			}
		}()
	}
	return p
}

// SetShards sets the sharded-phase width: ShardedEval fans its chunks
// across k goroutines when k > 1 and runs inline otherwise. Purely a
// throughput knob — results are bit-identical at any width — and may be
// changed mid-run between events (the old pool is stopped).
func (e *Engine) SetShards(k int) {
	if k < 0 {
		k = 0
	}
	if k == e.shards {
		return
	}
	e.StopWorkers()
	e.shards = k
}

// Shards returns the configured sharded-phase width.
func (e *Engine) Shards() int { return e.shards }

// StopWorkers terminates the sharded-phase pool goroutines, if any. Callers
// that set Shards > 1 should defer this when the run ends so pools do not
// pile up across the engines of a sweep. Safe to call repeatedly; the next
// fanned-out phase restarts the pool.
func (e *Engine) StopWorkers() {
	if e.shardPool != nil {
		close(e.shardPool.tasks)
		e.shardPool = nil
	}
}

// ShardedEval runs fn(shard, i) for every i in [0, n) and returns after all
// items and all staged commits have finished. Items are split into
// max(Shards(), 1) contiguous chunks; shard is the chunk index, always below
// max(Shards(), 1), and the items of one chunk run in ascending order on
// one goroutine while distinct chunks run concurrently.
//
// Determinism contract (DESIGN.md §15): fn may read simulation state frozen
// for the phase, write its item's own result slot, mutate scratch indexed
// by shard, and defer engine-visible effects with Stage — nothing else: no
// engine calls, no RNG, no nested ShardedEval. Nothing that outlives the
// phase may depend on shard. Staged ops run after the barrier in ascending
// item order, so the observable effect sequence is the same at any width.
//
// With Shards() <= 1 or n < 2 the phase runs inline as shard 0 — same item
// order, same commit order.
func (e *Engine) ShardedEval(n int, fn func(shard, i int)) {
	if e.inShardPhase {
		panic("sim: nested ShardedEval")
	}
	k := e.shards
	if k < 1 || n < 2 {
		k = 1
	}
	for len(e.stageBufs) < k {
		e.stageBufs = append(e.stageBufs, nil)
	}
	e.stageChunk = (n + k - 1) / k
	e.inShardPhase = true
	if k == 1 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
	} else {
		if e.shardPool == nil {
			e.shardPool = newShardPool(k)
		}
		p := e.shardPool
		for s, start := 0, 0; start < n; s, start = s+1, start+e.stageChunk {
			end := start + e.stageChunk
			if end > n {
				end = n
			}
			p.wg.Add(1)
			p.tasks <- shardTask{fn: fn, shard: s, start: start, end: end}
		}
		p.wg.Wait()
	}
	e.inShardPhase = false
	e.commitStaged()
}

// Stage defers op to the end of the enclosing ShardedEval phase. item must
// be the index the calling goroutine is currently evaluating — that is what
// makes the per-chunk staging buffer single-writer — and ops run after the
// barrier in ascending item order (FIFO within an item), on the engine
// goroutine, where they may schedule, send, and draw RNG freely.
//
// Calling Stage outside a sharded phase is a programming error.
func (e *Engine) Stage(item int, op func()) {
	if !e.inShardPhase {
		panic("sim: Stage called outside ShardedEval")
	}
	s := item / e.stageChunk
	e.stageBufs[s] = append(e.stageBufs[s], op) //pqlint:allow parsafe(per-chunk staging buffer: each shard goroutine appends only ops for its own items, and the buffers are drained serially at the barrier)
}

// commitStaged runs the staged ops. Chunks are contiguous and each is
// walked in ascending order, so draining the buffers in shard order is
// ascending item order.
func (e *Engine) commitStaged() {
	// Detach the buffers while ops run: an op may synchronously start
	// another ShardedEval (a commit that sends, whose handler prefetches),
	// and that phase must not append to the slices being drained.
	bufs := e.stageBufs
	e.stageBufs = nil
	for s := range bufs {
		for i, op := range bufs[s] {
			op()
			bufs[s][i] = nil
		}
		bufs[s] = bufs[s][:0]
	}
	if e.stageBufs == nil {
		e.stageBufs = bufs
	}
}
