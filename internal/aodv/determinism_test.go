package aodv

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"probquorum/internal/sim"
)

// TestDiscoveryResolutionDeterministic runs the same routed workload twice
// — interleaved sends from several origins, shared discoveries, and sends
// to a dead destination so failures mix with successes — and asserts the
// per-op resolution sequence (which op resolved, with what outcome, at
// what simulated time) is identical. This is the regression gate for
// settle's ordering: resolution must follow each target's pending
// insertion order, never map iteration order.
func TestDiscoveryResolutionDeterministic(t *testing.T) {
	workload := func() []string {
		e := sim.NewEngine(7)
		net, r, _ := lineWorld(e, 8, 150)
		net.Fail(7) // sends to 7 fail after the ring search exhausts
		var seq []string
		for i := 0; i < 12; i++ {
			i := i
			src := i % 3
			dst := 5 + i%3
			e.Schedule(float64(i)*0.01, func() {
				r.Send(src, dst, innerPkt(src, dst), func(ok bool) {
					seq = append(seq, fmt.Sprintf("op%d->%d ok=%v t=%.9f", i, dst, ok, e.Now()))
				})
			})
		}
		e.Run(60)
		return seq
	}

	first := workload()
	second := workload()
	if len(first) != 12 {
		t.Fatalf("got %d resolutions, want 12: %v", len(first), first)
	}
	okSeen, failSeen := false, false
	for _, s := range first {
		okSeen = okSeen || strings.Contains(s, "ok=true")
		failSeen = failSeen || strings.Contains(s, "ok=false")
	}
	if !okSeen || !failSeen {
		t.Fatalf("workload should mix successes and failures: %v", first)
	}
	if !reflect.DeepEqual(first, second) {
		t.Errorf("resolution sequences differ across identical runs:\n run1: %v\n run2: %v", first, second)
	}
}

// TestResetNodeTeardownOrder crashes four destinations so their
// discoveries stay pending, resets the origin mid-search, and asserts the
// buffered packets fail in ascending destination order — the sorted
// teardown of the discovery map.
func TestResetNodeTeardownOrder(t *testing.T) {
	e := sim.NewEngine(3)
	net, r, _ := lineWorld(e, 10, 150)
	for _, id := range []int{6, 7, 8, 9} {
		net.Fail(id)
	}
	var failed []int
	// Enqueue in deliberately unsorted destination order.
	e.Schedule(0, func() {
		for _, dst := range []int{9, 6, 8, 7} {
			dst := dst
			r.Send(0, dst, innerPkt(0, dst), func(ok bool) {
				if ok {
					t.Errorf("send to dead node %d reported success", dst)
				}
				failed = append(failed, dst)
			})
		}
	})
	e.Schedule(0.05, func() { r.ResetNode(0) })
	e.Run(1)
	want := []int{6, 7, 8, 9}
	if !reflect.DeepEqual(failed, want) {
		t.Errorf("teardown resolution order = %v, want %v", failed, want)
	}
	if n := len(r.nodes[0].disc); n != 0 {
		t.Errorf("discovery map should be empty after reset, has %d entries", n)
	}
}

// TestResetNodeClearsRoutes establishes a route, resets the node, and
// checks the routing table and duplicate-RREQ cache are gone while traffic
// still works afterwards (state rebuilds from scratch).
func TestResetNodeClearsRoutes(t *testing.T) {
	e := sim.NewEngine(5)
	_, r, sinks := lineWorld(e, 6, 150)
	e.Schedule(0, func() { r.Send(0, 5, innerPkt(0, 5), nil) })
	e.Run(10)
	if !r.HasRoute(0, 5) {
		t.Fatal("route should exist before reset")
	}
	r.ResetNode(0)
	if r.HasRoute(0, 5) {
		t.Fatal("route should be gone after reset")
	}
	if n := r.nodes[0].seenOrder.Len(); n != 0 {
		t.Fatalf("seen cache should be empty after reset, has %d entries", n)
	}
	var redelivered *bool
	e.Schedule(0, func() {
		r.Send(0, 5, innerPkt(0, 5), func(ok bool) { redelivered = &ok })
	})
	e.Run(20)
	if redelivered == nil || !*redelivered {
		t.Fatal("send after reset should rediscover and succeed")
	}
	if len(sinks[5].pkts) != 2 {
		t.Fatalf("destination received %d packets, want 2", len(sinks[5].pkts))
	}
}
