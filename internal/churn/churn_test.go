package churn

import (
	"testing"

	"probquorum/internal/netstack"
	"probquorum/internal/sim"
)

func newNet(seed int64, n int) (*sim.Engine, *netstack.Network) {
	e := sim.NewEngine(seed)
	net := netstack.New(e, netstack.Config{N: n, AvgDegree: 8, Stack: netstack.StackIdeal})
	return e, net
}

func TestDeterministicSchedule(t *testing.T) {
	e, net := newNet(1, 20)
	p := New(net, Config{Schedule: []Event{
		{At: 1, Op: Fail, Count: 3},
		{At: 2, Op: Join, Count: 2},
		{At: 3, Op: Fail, Count: 1},
	}})
	p.Start()
	e.Run(10)
	s := p.Stats()
	if s.Fails != 4 || s.Joins != 2 {
		t.Fatalf("stats = %+v, want 4 fails / 2 joins", s)
	}
	if got := net.NumAlive(); got != 20-4+2 {
		t.Fatalf("alive = %d, want 18", got)
	}
}

func TestPoissonRatesApproximateExpectation(t *testing.T) {
	e, net := newNet(2, 500)
	p := New(net, Config{FailRate: 2, JoinRate: 2})
	p.Start()
	e.Run(100) // expect ≈200 of each
	s := p.Stats()
	if s.Fails < 140 || s.Fails > 260 {
		t.Fatalf("fails = %d, want ≈200", s.Fails)
	}
	if s.Joins < 140 || s.Joins > 260 {
		t.Fatalf("joins = %d, want ≈200", s.Joins)
	}
}

func TestJoinPools(t *testing.T) {
	e, net := newNet(3, 10)
	net.Fail(8)
	net.Fail(9)
	p := New(net, Config{Schedule: []Event{{At: 1, Op: Join, Count: 3}}})
	p.SetFreshPool([]int{8, 9})
	var joined []int
	p.OnJoin(func(id int) { joined = append(joined, id) })
	p.Start()
	e.Run(5)
	// Fresh slots consumed in order; the third join has no crashed node to
	// reboot (this process failed none) and is skipped.
	if len(joined) != 2 || joined[0] != 8 || joined[1] != 9 {
		t.Fatalf("joined = %v, want [8 9]", joined)
	}
	if s := p.Stats(); s.SkippedJoins != 1 {
		t.Fatalf("stats = %+v, want 1 skipped join", s)
	}
}

func TestRebootsCrashedNodes(t *testing.T) {
	e, net := newNet(4, 10)
	p := New(net, Config{Schedule: []Event{
		{At: 1, Op: Fail, Count: 4},
		{At: 2, Op: Join, Count: 4},
	}})
	var failed, joined []int
	p.OnFail(func(id int) { failed = append(failed, id) })
	p.OnJoin(func(id int) { joined = append(joined, id) })
	p.Start()
	e.Run(5)
	if len(joined) != 4 {
		t.Fatalf("joined %d nodes, want 4 reboots", len(joined))
	}
	crashed := map[int]bool{}
	for _, id := range failed {
		crashed[id] = true
	}
	for _, id := range joined {
		if !crashed[id] {
			t.Fatalf("joined %d, which this process never failed", id)
		}
	}
	if got := net.NumAlive(); got != 10 {
		t.Fatalf("alive = %d after equal fails and reboots", got)
	}
}

func TestStopHaltsPendingEvents(t *testing.T) {
	e, net := newNet(5, 50)
	p := New(net, Config{FailRate: 10, Schedule: []Event{{At: 8, Op: Fail, Count: 5}}})
	p.Start()
	e.Run(2)
	p.Stop()
	mid := p.Stats().Fails
	if mid == 0 {
		t.Fatal("no failures before Stop")
	}
	e.Run(20)
	if got := p.Stats().Fails; got != mid {
		t.Fatalf("failures continued after Stop: %d -> %d", mid, got)
	}
	if p.running {
		t.Fatal("still running after Stop")
	}
}

func TestMinAliveFloor(t *testing.T) {
	e, net := newNet(6, 5)
	p := New(net, Config{Schedule: []Event{{At: 1, Op: Fail, Count: 10}}})
	p.Start()
	e.Run(5)
	if got := net.NumAlive(); got != minAlive {
		t.Fatalf("alive = %d, want the floor %d", got, minAlive)
	}
	s := p.Stats()
	if s.Fails != 3 || s.SkippedFails != 7 {
		t.Fatalf("stats = %+v, want 3 fails / 7 skipped", s)
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	run := func() []int {
		e, net := newNet(7, 40)
		p := New(net, Config{FailRate: 1, JoinRate: 0.5})
		var order []int
		p.OnFail(func(id int) { order = append(order, id) })
		p.OnJoin(func(id int) { order = append(order, -id) })
		p.Start()
		e.Run(30)
		return order
	}
	a, b := run(), run()
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("event counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("event %d differs: %d vs %d", i, a[i], b[i])
		}
	}
}
