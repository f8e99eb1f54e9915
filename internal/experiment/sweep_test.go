package experiment

import (
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"probquorum/internal/netstack"
	"probquorum/internal/stack"
)

// microSweep is a small two-point sweep used by the executor tests.
func microSweep() []Point {
	mk := func(n int, seed int64) Scenario {
		return testScenario(netstack.StackIdeal, n, seed, 6, 24, 4)
	}
	return []Point{
		{Scenario: mk(40, 3), Seeds: 3},
		{Scenario: mk(60, 9), Seeds: 2},
	}
}

// TestRunSweepDeterminism is the bit-for-bit determinism guard: the same
// sweep must produce identical Result values at parallel=1 and parallel=8,
// regardless of run completion order.
func TestRunSweepDeterminism(t *testing.T) {
	pts := microSweep()
	serial := RunSweep(pts, 1)
	parallel := RunSweep(pts, 8)
	if len(serial) != len(pts) || len(parallel) != len(pts) {
		t.Fatalf("result lengths: serial=%d parallel=%d", len(serial), len(parallel))
	}
	for i := range serial {
		if !reflect.DeepEqual(serial[i], parallel[i]) {
			t.Fatalf("point %d diverged:\nserial:   %+v\nparallel: %+v", i, serial[i], parallel[i])
		}
	}
}

// TestRunSweepMatchesRunSeeds pins the executor to the legacy serial
// semantics: one point averaged over k seeds equals RunSeeds.
func TestRunSweepMatchesRunSeeds(t *testing.T) {
	pts := microSweep()
	res := RunSweep(pts, 4)
	for i, pt := range pts {
		want := RunSeeds(pt.Scenario, pt.Seeds)
		if !reflect.DeepEqual(res[i], want) {
			t.Fatalf("point %d: sweep %+v != RunSeeds %+v", i, res[i], want)
		}
		if res[i].Runs != pt.Seeds {
			t.Fatalf("point %d: Runs=%d, want %d", i, res[i].Runs, pt.Seeds)
		}
	}
}

// TestForEachJobRunsAllOnce checks that runJobs runs every job exactly once
// and returns each result at its job's index.
func TestForEachJobRunsAllOnce(t *testing.T) {
	const n = 57
	var mu sync.Mutex
	seen := make(map[int]int)
	out := runJobs(n, 8, func(j int) int {
		mu.Lock()
		seen[j]++
		mu.Unlock()
		return j * j
	})
	if len(seen) != n || len(out) != n {
		t.Fatalf("ran %d distinct jobs and returned %d results, want %d", len(seen), len(out), n)
	}
	for j, c := range seen {
		if c != 1 {
			t.Fatalf("job %d ran %d times", j, c)
		}
		if out[j] != j*j {
			t.Fatalf("result %d = %d, want %d", j, out[j], j*j)
		}
	}
}

// TestForEachJobBoundedWorkers checks that runJobs's pool never exceeds its
// size.
func TestForEachJobBoundedWorkers(t *testing.T) {
	var active, peak atomic.Int32
	runJobs(64, 3, func(int) struct{} {
		cur := active.Add(1)
		for {
			p := peak.Load()
			if cur <= p || peak.CompareAndSwap(p, cur) {
				break
			}
		}
		active.Add(-1)
		return struct{}{}
	})
	if p := peak.Load(); p > 3 {
		t.Fatalf("peak concurrency %d exceeds pool size 3", p)
	}
}

func TestFillDefaults(t *testing.T) {
	var sc Scenario
	sc.fillDefaults()
	// Density and stack kind default where the stack is built (netstack).
	if sc.N != 100 {
		t.Fatalf("network defaults: %+v", sc)
	}
	if sc.Advertisements != 100 || sc.Lookups != 1000 || sc.LookupNodes != 25 {
		t.Fatalf("workload defaults: %+v", sc)
	}
	// SINR default stack warms up for 60 s.
	if sc.WarmupSecs != 60 {
		t.Fatalf("SINR warmup = %v, want 60", sc.WarmupSecs)
	}
}

func TestFillDefaultsIdealWarmup(t *testing.T) {
	var sc Scenario
	sc.Link.Stack = netstack.StackIdeal
	sc.fillDefaults()
	if sc.WarmupSecs != 30 {
		t.Fatalf("ideal warmup = %v, want 30", sc.WarmupSecs)
	}
}

func TestFillDefaultsPreservesExplicit(t *testing.T) {
	sc := Scenario{
		Spec:           stack.Spec{N: 7, Link: netstack.Config{AvgDegree: 3, Stack: netstack.StackIdeal}},
		Advertisements: 1, Lookups: 2, LookupNodes: 3, WarmupSecs: 12,
	}
	got := sc
	got.fillDefaults()
	if got.N != sc.N || got.Link != sc.Link ||
		got.Advertisements != sc.Advertisements ||
		got.Lookups != sc.Lookups || got.LookupNodes != sc.LookupNodes ||
		got.WarmupSecs != sc.WarmupSecs {
		t.Fatalf("fillDefaults overwrote explicit values:\nbefore %+v\nafter  %+v", sc, got)
	}
}
