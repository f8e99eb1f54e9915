package sim

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// shardedHarness runs one deterministic sharded phase the way the route
// cache does: items write their own result slot, mutate the scratch slot of
// the shard index they were handed, and stage commits that append to a
// shared log (legal only because commits run serially at the barrier).
func shardedHarness(t *testing.T, shards, n int) (results []int, scratchTotal int, log []string) {
	t.Helper()
	e := NewEngine(1)
	e.SetShards(shards)
	defer e.StopWorkers()

	results = make([]int, n)
	scratch := make([]int, max(shards, 1))
	e.At(1, func() {
		e.ShardedEval(n, func(shard, i int) {
			results[i] = i * i
			scratch[shard] += i
			if i%3 == 0 {
				e.Stage(i, func() { log = append(log, fmt.Sprintf("op%d", i)) })
				e.Stage(i, func() { log = append(log, fmt.Sprintf("op%d-b", i)) })
			}
		})
	})
	if err := e.RunAll(100); err != nil {
		t.Error(err) // not Fatal: TestShardedEvalEnginesIsolated calls this off the test goroutine
	}
	for _, v := range scratch {
		scratchTotal += v
	}
	return results, scratchTotal, log
}

// TestShardedEvalBitIdentical checks the core contract: results and the
// staged-commit sequence are identical at any shard count, including the
// inline widths 0 and 1 and widths that do not divide n. Per-shard scratch
// is partitioned differently at each width, so only its total is comparable.
func TestShardedEvalBitIdentical(t *testing.T) {
	const n = 37
	wantRes, wantScratch, wantLog := shardedHarness(t, 0, n)
	for _, w := range []int{1, 2, 3, 4, 8, 64} {
		res, scr, log := shardedHarness(t, w, n)
		if fmt.Sprint(res) != fmt.Sprint(wantRes) {
			t.Errorf("shards=%d: results diverged", w)
		}
		if scr != wantScratch {
			t.Errorf("shards=%d: scratch total %d, want %d", w, scr, wantScratch)
		}
		if fmt.Sprint(log) != fmt.Sprint(wantLog) {
			t.Errorf("shards=%d: commit order diverged:\n got %v\nwant %v", w, log, wantLog)
		}
	}
}

// TestShardedEvalCommitOrder pins the staged-commit ordering rule: ops run
// after the barrier in ascending item order, FIFO within an item, however
// the items were chunked.
func TestShardedEvalCommitOrder(t *testing.T) {
	_, _, log := shardedHarness(t, 4, 13)
	want := []string{"op0", "op0-b", "op3", "op3-b", "op6", "op6-b", "op9", "op9-b", "op12", "op12-b"}
	if fmt.Sprint(log) != fmt.Sprint(want) {
		t.Fatalf("commit order:\n got %v\nwant %v", log, want)
	}
}

// TestShardedEvalShardAffinity verifies what makes scratch indexed by shard
// legal: a shard index is below the width, is held by one goroutine at a
// time, and sees a contiguous ascending run of items. The seen lists are
// themselves unsynchronized per-shard scratch, so -race cross-checks the
// busy flags.
func TestShardedEvalShardAffinity(t *testing.T) {
	const n, k = 67, 4
	e := NewEngine(1)
	e.SetShards(k)
	defer e.StopWorkers()

	busy := make([]atomic.Bool, k)
	seen := make([][]int, k)
	var overlap atomic.Bool
	e.At(1, func() {
		e.ShardedEval(n, func(shard, i int) {
			if !busy[shard].CompareAndSwap(false, true) {
				overlap.Store(true)
			}
			seen[shard] = append(seen[shard], i)
			busy[shard].Store(false)
		})
	})
	if err := e.RunAll(10); err != nil {
		t.Fatal(err)
	}
	if overlap.Load() {
		t.Fatal("two goroutines held one shard index at once")
	}
	next := 0
	for s, items := range seen {
		if len(items) == 0 {
			t.Fatalf("shard %d received no items", s)
		}
		for _, i := range items {
			if i != next {
				t.Fatalf("shard %d ran %v; want the contiguous ascending run starting at %d", s, items, next-len(items))
			}
			next++
		}
	}
	if next != n {
		t.Fatalf("shards covered %d of %d items", next, n)
	}
}

// TestShardedEvalCoversAllItems sweeps the edge sizes — n = 0, 1, below the
// width, and ragged final chunks: every item runs exactly once on a shard
// index below the width, commits are in item order, and a phase too small
// to split never starts the pool.
func TestShardedEvalCoversAllItems(t *testing.T) {
	for _, k := range []int{0, 1, 2, 5, 8} {
		for _, n := range []int{0, 1, 2, 3, 7, 8, 9, 100, 101} {
			e := NewEngine(1)
			e.SetShards(k)
			hits := make([]int32, n)
			var order []int
			e.ShardedEval(n, func(shard, i int) {
				if shard < 0 || shard >= max(k, 1) {
					t.Errorf("shards=%d n=%d: item %d ran as shard %d", k, n, i, shard)
				}
				hits[i]++
				e.Stage(i, func() { order = append(order, i) })
			})
			if n < 2 && e.shardPool != nil {
				t.Errorf("shards=%d n=%d: pool started for an unsplittable phase", k, n)
			}
			e.StopWorkers()
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("shards=%d n=%d: item %d evaluated %d times", k, n, i, h)
				}
			}
			if len(order) != n {
				t.Fatalf("shards=%d n=%d: %d commits", k, n, len(order))
			}
			for i, got := range order {
				if got != i {
					t.Fatalf("shards=%d n=%d: commit order %v", k, n, order)
				}
			}
		}
	}
}

// TestShardedEvalResize changes the width between events mid-run; results
// and commit order must be unperturbed (SetShards is pure throughput).
func TestShardedEvalResize(t *testing.T) {
	run := func(resize bool) string {
		e := NewEngine(7)
		e.SetShards(2)
		defer e.StopWorkers()
		var out []int
		res := make([]int, 32)
		for step := 0; step < 4; step++ {
			e.At(float64(step+1), func() {
				e.ShardedEval(32, func(_, i int) {
					res[i] = i * (step + 1)
					e.Stage(i, func() { out = append(out, res[i]) })
				})
				if resize && step == 1 {
					e.SetShards(8)
				}
				if resize && step == 2 {
					e.SetShards(0)
				}
			})
		}
		if err := e.RunAll(100); err != nil {
			t.Fatal(err)
		}
		return fmt.Sprint(out)
	}
	if got, want := run(true), run(false); got != want {
		t.Fatalf("mid-run SetShards perturbed results: got %s want %s", got, want)
	}
}

// TestShardedEvalFromCommit starts a phase from a staged op (a commit that
// sends, whose handler prefetches): the inner phase's commits run inside
// the outer op, and the outer drain continues where it left off.
func TestShardedEvalFromCommit(t *testing.T) {
	for _, k := range []int{0, 3} {
		e := NewEngine(1)
		e.SetShards(k)
		var log []string
		e.ShardedEval(4, func(_, i int) {
			e.Stage(i, func() {
				log = append(log, fmt.Sprintf("outer%d", i))
				if i == 1 {
					e.ShardedEval(3, func(_, j int) {
						e.Stage(j, func() { log = append(log, fmt.Sprintf("inner%d", j)) })
					})
				}
			})
		})
		e.StopWorkers()
		want := "[outer0 outer1 inner0 inner1 inner2 outer2 outer3]"
		if got := fmt.Sprint(log); got != want {
			t.Fatalf("shards=%d: got %s want %s", k, got, want)
		}
	}
}

// TestStageOutsidePhasePanics pins the misuse guard.
func TestStageOutsidePhasePanics(t *testing.T) {
	e := NewEngine(1)
	defer func() {
		if recover() == nil {
			t.Fatal("Stage outside ShardedEval did not panic")
		}
	}()
	e.Stage(0, func() {})
}

// TestSetStopWorkers exercises the pool lifecycle: the pool starts lazily,
// resizing stops it, StopWorkers is idempotent, and the next fanned-out
// phase restarts it.
func TestSetStopWorkers(t *testing.T) {
	e := NewEngine(1)
	if e.Shards() != 0 {
		t.Fatalf("default Shards() = %d, want 0", e.Shards())
	}
	e.SetShards(-3)
	if e.Shards() != 0 {
		t.Fatalf("negative width clamped to %d, want 0", e.Shards())
	}
	e.SetShards(4)
	if e.shardPool != nil {
		t.Fatal("SetShards started the pool eagerly")
	}
	e.ShardedEval(8, func(int, int) {})
	if e.shardPool == nil {
		t.Fatal("fanned-out phase did not start the pool")
	}
	e.SetShards(2) // resize: old pool must be stopped
	if e.shardPool != nil {
		t.Fatal("resize left the old pool attached")
	}
	e.ShardedEval(8, func(int, int) {})
	e.StopWorkers()
	e.StopWorkers() // idempotent
	e.ShardedEval(8, func(int, int) {})
	e.StopWorkers()
}

// TestShardedEvalEnginesIsolated runs fanned-out phases on several engines
// from separate goroutines concurrently — race-detector coverage for the
// run-isolation invariant extended by per-engine pools.
func TestShardedEvalEnginesIsolated(t *testing.T) {
	const engines = 4
	var wg sync.WaitGroup
	logs := make([]string, engines)
	for k := 0; k < engines; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 20; rep++ {
				_, _, log := shardedHarness(t, 2+k%3, 200)
				logs[k] = fmt.Sprint(log)
			}
		}()
	}
	wg.Wait()
	for k := 1; k < engines; k++ {
		if logs[k] != logs[0] {
			t.Fatalf("engine %d commit log differs from engine 0", k)
		}
	}
}
