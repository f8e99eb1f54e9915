package stack

import (
	"testing"

	"probquorum/internal/aodv"
	"probquorum/internal/churn"
	"probquorum/internal/netstack"
	"probquorum/internal/quorum"
)

func idealSpec(n, joinSlots int) Spec {
	qc := quorum.DefaultConfig(n)
	qc.AdvertiseStrategy, qc.LookupStrategy = quorum.Random, quorum.Random
	return Spec{
		N: n, JoinSlots: joinSlots, Seed: 7, OracleRouting: true, Quorum: qc,
		Link: netstack.Config{AvgDegree: 12, Stack: netstack.StackIdeal},
	}
}

// TestJoinSlotsStartFailedAndViewless: slots behind the initial population
// are down and hold no membership view; the area (hence the density of the
// live network) is that of the initial population alone.
func TestJoinSlotsStartFailedAndViewless(t *testing.T) {
	st := Build(idealSpec(40, 10))
	if st.Net.N() != 50 || st.Net.NumAlive() != 40 {
		t.Fatalf("N=%d alive=%d, want 50 slots with 40 alive", st.Net.N(), st.Net.NumAlive())
	}
	for id := 40; id < 50; id++ {
		if st.Net.Alive(id) {
			t.Errorf("join slot %d starts alive", id)
		}
		if v := st.Members.View(id); len(v) != 0 {
			t.Errorf("join slot %d holds a %d-entry view before joining", id, len(v))
		}
	}
	if got, want := st.Net.Config().Side, Build(idealSpec(40, 0)).Net.Config().Side; got != want {
		t.Errorf("area side %v with join slots, %v without: the slots resized the area", got, want)
	}
}

// TestChurnJoinersComeBackClean: a join takes the join slots first, and the
// joiner — fresh slot or rebooted crash — has an empty store and a fresh
// view the moment it is up.
func TestChurnJoinersComeBackClean(t *testing.T) {
	st := Build(idealSpec(40, 2))
	st.Engine.Run(5)
	st.Suite.Advertise(0, "k", "v", nil)
	st.Engine.Run(st.Engine.Now() + 30)

	var joined []int
	proc := st.Churn(churn.Config{Schedule: []churn.Event{
		{At: 1, Op: churn.Fail, Count: 5},
		{At: 2, Op: churn.Join, Count: 4}, // two fresh slots, then two reboots
	}})
	proc.OnJoin(func(id int) {
		joined = append(joined, id)
		if n := st.Sys.Store(id).Len(); n != 0 {
			t.Errorf("joiner %d came up with %d stored entries", id, n)
		}
		if len(st.Members.View(id)) == 0 {
			t.Errorf("joiner %d came up without a membership view", id)
		}
	})
	proc.Start()
	st.Engine.Run(st.Engine.Now() + 5)

	if len(joined) != 4 || joined[0] != 40 || joined[1] != 41 {
		t.Fatalf("joined %v, want the fresh slots 40, 41 first and then two reboots", joined)
	}
	for _, id := range joined[2:] {
		if id >= 40 {
			t.Errorf("third and fourth joins should reboot crashed nodes, got slot %d", id)
		}
	}
	if rep := st.Suite.Final(); !rep.OK() {
		t.Errorf("violations: %v", rep.Details)
	}
}

// TestChurnRebootForgetsAODVRoutes: a node that crashes and reboots over AODV
// comes back without the routes it held before the crash — its routing table,
// like its store, does not survive the reboot.
func TestChurnRebootForgetsAODVRoutes(t *testing.T) {
	sp := idealSpec(40, 0)
	sp.OracleRouting = false
	st := Build(sp)
	routing := st.Router.(*aodv.Routing)
	st.Engine.Run(5)
	for origin := 0; origin < 40; origin += 4 {
		st.Suite.Advertise(origin, "k", "v", nil)
	}
	st.Engine.Run(st.Engine.Now() + 2)

	held := make(map[int][]int) // crashed node -> destinations it had routes to
	proc := st.Churn(churn.Config{Schedule: []churn.Event{
		{At: 0.1, Op: churn.Fail, Count: 15},
		{At: 0.2, Op: churn.Join, Count: 15}, // no join slots: every join reboots a crash
	}})
	proc.OnFail(func(id int) {
		for dst := 0; dst < st.Net.N(); dst++ {
			if routing.HasRoute(id, dst) {
				held[id] = append(held[id], dst)
			}
		}
	})
	checked := 0
	proc.OnJoin(func(id int) {
		for _, dst := range held[id] {
			checked++
			if routing.HasRoute(id, dst) {
				t.Errorf("node %d rebooted still holding its pre-crash route to %d", id, dst)
			}
		}
	})
	proc.Start()
	st.Engine.Run(st.Engine.Now() + 1)
	if checked == 0 {
		t.Fatal("no rebooted node held a route before its crash: the test checked nothing")
	}
}

// TestFaultsArmsPartitionOracle: after Faults the suite knows the injector's
// partition, so a frame that does cross it is a recorded violation. The
// netstack's own partition filter is lifted to let such frames through;
// without Faults the same traffic is clean, because nobody asked.
func TestFaultsArmsPartitionOracle(t *testing.T) {
	run := func(armed bool) int {
		st := Build(idealSpec(30, 0))
		if armed {
			inj := st.Faults()
			half := make([]int, 15)
			for i := range half {
				half[i] = i
			}
			inj.PartitionSets([][]int{half})
			st.Net.SetPartitionFunc(nil)
		}
		st.Engine.Run(5)
		st.Suite.Advertise(0, "k", "v", nil)
		st.Engine.Run(st.Engine.Now() + 30)
		crossings := 0
		for _, v := range st.Suite.Final().Details {
			if v.Invariant == "cross-partition-delivery" {
				crossings++
			}
		}
		return crossings
	}
	if n := run(true); n == 0 {
		t.Error("frames crossed the injector's partition and the suite recorded no violation")
	}
	if n := run(false); n != 0 {
		t.Errorf("%d cross-partition violations with no injector built", n)
	}
}

// TestViewCoversRandomQuorums: the membership view is the paper's ⌈2√N⌉
// unless a strategy that draws from it — RANDOM, or RANDOM-OPT, whose
// advertise is the same draw — is configured with a larger quorum, which Pick
// could otherwise only truncate; sizes of walk strategies do not matter, nor
// does |Qℓ| to a RANDOM-OPT lookup, which draws its ~ln n targets.
func TestViewCoversRandomQuorums(t *testing.T) {
	for _, c := range []struct {
		adv, lk      quorum.Strategy
		qa, ql, want int
	}{
		{quorum.Random, quorum.UniquePath, 20, 12, 20},
		{quorum.Random, quorum.UniquePath, 30, 60, 30},
		{quorum.UniquePath, quorum.Random, 60, 35, 35},
		{quorum.Random, quorum.Random, 25, 40, 40},
		{quorum.UniquePath, quorum.UniquePath, 60, 60, 20},
		{quorum.RandomOpt, quorum.UniquePath, 60, 12, 60},
		{quorum.Random, quorum.RandomOpt, 20, 60, 20},
	} {
		sp := idealSpec(100, 0)
		sp.Quorum.AdvertiseStrategy, sp.Quorum.LookupStrategy = c.adv, c.lk
		sp.Quorum.AdvertiseSize, sp.Quorum.LookupSize = c.qa, c.ql
		if got := len(Build(sp).Members.View(0)); got != c.want {
			t.Errorf("%v %d × %v %d: view holds %d ids, want %d", c.adv, c.qa, c.lk, c.ql, got, c.want)
		}
	}
}
