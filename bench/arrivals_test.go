package main

import (
	"reflect"
	"sort"
	"testing"
)

func TestScheduleIsAFunctionOfTheSeedAlone(t *testing.T) {
	a := schedule(7, 500, 30, 16, 0.2)
	// Building and running a stack between two calls must not matter: the
	// generator owns its random source and never sees the program.
	st := buildStack(findWorkload("ideal-routed-mixed").smoke(), nil)
	st.engine.Run(1)
	b := schedule(7, 500, 30, 16, 0.2)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed, different schedules")
	}
	if reflect.DeepEqual(a, schedule(8, 500, 30, 16, 0.2)) {
		t.Fatal("different seeds, same schedule")
	}
}

func TestScheduleOffersFixedWork(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		arr := schedule(seed, 1000, 40, 32, 0.05)
		if len(arr) != 1000 {
			t.Fatalf("seed %d: %d arrivals, want 1000", seed, len(arr))
		}
		if !sort.SliceIsSorted(arr, func(i, j int) bool { return arr[i].at < arr[j].at }) {
			t.Fatalf("seed %d: arrivals out of order", seed)
		}
		writes := 0
		perKey := make([]int, 32)
		perBlock := make([]int, 50) // 1000 ops, 50 writes: blocks of 20 ops
		for i, a := range arr {
			if a.at < 0 || a.at >= 40 || a.origin < 0 || a.origin >= 1 || a.key < 0 || a.key >= 32 {
				t.Fatalf("seed %d: arrival out of range: %+v", seed, a)
			}
			if a.write {
				writes++
				perKey[a.key]++
				perBlock[i/20]++
			}
		}
		if writes != 50 {
			t.Fatalf("seed %d: %d writes, want exactly 50", seed, writes)
		}
		// Balanced design: 50 writes over 32 keys are one or two per key, and
		// one per block of the op sequence.
		for k, c := range perKey {
			if c < 1 || c > 2 {
				t.Fatalf("seed %d: key %d written %d times, want 1 or 2", seed, k, c)
			}
		}
		for b, c := range perBlock {
			if c != 1 {
				t.Fatalf("seed %d: block %d holds %d writes, want 1", seed, b, c)
			}
		}
	}
	if arr := schedule(1, 10, 1, 1, 0); len(arr) != 10 || arr[3].key != 0 {
		t.Fatalf("single-key schedule broken: %+v", arr)
	}
}

// The same schedule offered to two different programs is issued at the same
// times, for the same keys, in the same order: only the origin may differ,
// because it is drawn among the nodes able to issue.
func TestSameSeedSameLoadOnDifferentStacks(t *testing.T) {
	counts := func(name string) (int, int, int) {
		wl := findWorkload(name).smoke()
		wl.writeShare = 0.25
		r := timed(setup(wl, nil), 3, 1, nil, false)
		return r.attempted, r.lookups, r.writes
	}
	a1, l1, w1 := counts("ideal-walk-read")
	a2, l2, w2 := counts("scale-sinr-churn")
	if a1 != a2 || l1 != l2 || w1 != w2 || w1 == 0 {
		t.Fatalf("two stacks saw different loads: %d/%d/%d vs %d/%d/%d", a1, l1, w1, a2, l2, w2)
	}
}

func TestPickOriginSkipsIneligibleNodes(t *testing.T) {
	ok := func(id int) bool { return id == 2 || id == 7 }
	for u, want := range map[float64]int{0: 2, 0.2: 2, 0.25: 2, 0.3: 7, 0.7: 7, 0.8: 2, 0.999: 2} {
		if got := pickOrigin(10, ok, u); got != want {
			t.Errorf("pickOrigin(u=%v) = %d, want %d", u, got, want)
		}
	}
}

func TestMainPartIsTheLargestComponent(t *testing.T) {
	// 0-1-2-3 form a path, 4-5 a pocket, 6 is dead, 7 is alone.
	adj := [][]int{{1}, {0, 2}, {1, 3}, {2}, {5}, {4}, {3}, {}}
	in := mainPart(8, func(id int) bool { return id != 6 }, func(id int) []int { return adj[id] })
	want := []bool{true, true, true, true, false, false, false, false}
	if !reflect.DeepEqual(in, want) {
		t.Fatalf("mainPart = %v, want %v", in, want)
	}
}
