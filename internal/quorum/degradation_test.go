package quorum

import (
	"testing"

	"probquorum/internal/netstack"
)

// TestFloodCoverageExpandingRingLookup is the regression test for the
// child-op coverage bug: ExpandingRing once ran every ring as a child op, so
// the root op carried no flood state and FloodCoverage reported ~0. Coverage
// must be the union of distinct nodes across rounds.
func TestFloodCoverageExpandingRingLookup(t *testing.T) {
	w := newWorld(41, 150, Config{
		AdvertiseStrategy: Flooding, LookupStrategy: ExpandingRing,
		AdvertiseTTL: 2, LookupTimeout: 15,
	})
	w.advertise(0, "k", "v")
	var ref OpRef
	w.e.Schedule(0, func() {
		// A far origin is unlikely to hit in ring 1, forcing escalation.
		ref = w.sys.Lookup(100, "k", nil)
	})
	w.e.Run(w.e.Now() + 20)
	if cov := w.sys.FloodCoverage(ref); cov < 2 {
		t.Fatalf("FloodCoverage = %d for an expanding-ring lookup, want at least the first ring", cov)
	}
}

// TestDeadOriginOpsFailFast: operations issued from a crashed node must fail
// immediately, send nothing, and be counted.
func TestDeadOriginOpsFailFast(t *testing.T) {
	w := newWorld(42, 80, Config{
		AdvertiseStrategy: Random, LookupStrategy: Random,
		AdvertiseSize: 16, LookupSize: 10, LookupTimeout: 20,
	})
	w.net.Fail(7)
	before := w.net.Stats().Get(netstack.CtrAppMsgs)

	var adRes *AdvertiseResult
	var lkRes *LookupResult
	var colRes *CollectResult
	w.e.Schedule(0, func() {
		w.sys.Advertise(7, "k", "v", func(r AdvertiseResult) { adRes = &r })
		w.sys.Lookup(7, "k", func(r LookupResult) { lkRes = &r })
		w.sys.LookupCollect(7, "k", 5, func(r CollectResult) { colRes = &r })
	})
	w.e.Run(w.e.Now() + 1) // far less than the lookup timeout

	if adRes == nil || adRes.Placed != 0 {
		t.Fatalf("dead-origin advertise: %+v", adRes)
	}
	if lkRes == nil || lkRes.Hit || lkRes.Intersected {
		t.Fatalf("dead-origin lookup: %+v", lkRes)
	}
	if colRes == nil || colRes.Intersected || len(colRes.Values) != 0 {
		t.Fatalf("dead-origin collect: %+v", colRes)
	}
	if got := w.sys.Counters().DeadOriginOps; got != 3 {
		t.Fatalf("DeadOriginOps = %d, want 3", got)
	}
	if after := w.net.Stats().Get(netstack.CtrAppMsgs); after != before {
		t.Fatalf("dead origin transmitted %d messages", after-before)
	}
}

// TestLookupRetryRecovers drives the retry ladder end to end: total receive
// loss makes the first attempt time out; the loss clears during the backoff,
// so the retry's fresh quorum draw hits.
func TestLookupRetryRecovers(t *testing.T) {
	w := newWorld(43, 100, Config{
		AdvertiseStrategy: Random, LookupStrategy: Random,
		AdvertiseSize: 20, LookupSize: 12,
		LookupTimeout: 5, LookupRetries: 2, RetryBackoffSecs: 1,
	})
	w.advertise(0, "k", "v")

	var res *LookupResult
	w.e.Schedule(0, func() {
		w.net.SetLinkFaultFunc(func(int, int, *netstack.Packet) netstack.FaultAction { return netstack.FaultAction{Drop: true} })
		w.sys.Lookup(30, "k", func(r LookupResult) { res = &r })
	})
	// Heal the network mid-backoff: attempt 1 times out at t+5, the retry
	// dispatches at t+6.
	w.e.Schedule(5.5, func() { w.net.SetLinkFaultFunc(nil) })
	w.e.Run(w.e.Now() + 40)

	if res == nil {
		t.Fatal("lookup never completed")
	}
	if !res.Hit {
		t.Fatalf("retry did not recover the lookup: %+v (counters %+v)", *res, w.sys.Counters())
	}
	if got := w.sys.Counters().LookupRetries; got != 1 {
		t.Fatalf("LookupRetries = %d, want exactly 1", got)
	}
}

// TestLookupRetriesExhausted: with loss never clearing, the ladder runs all
// retries and still reports the miss, exactly once.
func TestLookupRetriesExhausted(t *testing.T) {
	w := newWorld(44, 80, Config{
		AdvertiseStrategy: Random, LookupStrategy: Random,
		AdvertiseSize: 16, LookupSize: 10,
		LookupTimeout: 4, LookupRetries: 2, RetryBackoffSecs: 0.5,
	})
	w.advertise(0, "k", "v")
	w.net.SetLinkFaultFunc(func(int, int, *netstack.Packet) netstack.FaultAction { return netstack.FaultAction{Drop: true} })
	calls := 0
	var last LookupResult
	w.e.Schedule(0, func() {
		w.sys.Lookup(30, "k", func(r LookupResult) { calls++; last = r })
	})
	w.e.Run(w.e.Now() + 60)
	if calls != 1 {
		t.Fatalf("done fired %d times", calls)
	}
	if last.Hit {
		t.Fatal("impossible hit through total loss")
	}
	if got := w.sys.Counters().LookupRetries; got != 2 {
		t.Fatalf("LookupRetries = %d, want 2", got)
	}
}

// TestReadvertiseRestoresReplicas: after crashing every replica holder but
// the origin, the periodic re-advertise must rebuild the advertise quorum.
func TestReadvertiseRestoresReplicas(t *testing.T) {
	w := newWorld(45, 100, Config{
		AdvertiseStrategy: Random, LookupStrategy: Random,
		AdvertiseSize: 20, LookupSize: 12,
		LookupTimeout: 10, ReadvertiseSecs: 10,
	})
	w.advertise(0, "k", "v")
	holders := func() []int {
		var ids []int
		for id := 0; id < 100; id++ {
			if _, ok := w.sys.Store(id).Get("k"); ok && w.net.Alive(id) {
				ids = append(ids, id)
			}
		}
		return ids
	}
	// RANDOM advertise does not write the origin's own store: crashing
	// every holder leaves zero live replicas while the owner stays up.
	for _, id := range holders() {
		w.net.Fail(id)
	}
	if got := len(holders()); got != 0 {
		t.Fatalf("%d live holders after the crash, want none", got)
	}
	// Two re-advertise periods plus a membership refresh cycle (30 s) so
	// the origin's view repopulates with live nodes.
	w.e.Run(w.e.Now() + 65)
	if got := w.sys.Counters().Readvertises; got == 0 {
		t.Fatal("no re-advertises fired")
	}
	if got := len(holders()); got < 10 {
		t.Fatalf("%d live holders after refresh, want the quorum rebuilt", got)
	}
}

// TestReadvertiseStopsForDeadOwner: a crashed owner's keys must not refresh.
func TestReadvertiseStopsForDeadOwner(t *testing.T) {
	w := newWorld(46, 80, Config{
		AdvertiseStrategy: Random, LookupStrategy: Random,
		AdvertiseSize: 16, LookupSize: 10,
		LookupTimeout: 10, ReadvertiseSecs: 5,
	})
	w.advertise(0, "k", "v")
	w.net.Fail(0)
	before := w.sys.Counters().Readvertises
	w.e.Run(w.e.Now() + 20)
	if got := w.sys.Counters().Readvertises; got != before {
		t.Fatalf("dead owner re-advertised %d times", got-before)
	}
}

// TestResetNodeClearsState: ResetNode must clear the store and the refresh
// registry (a rebooted node does not resume advertising its old keys).
func TestResetNodeClearsState(t *testing.T) {
	w := newWorld(47, 80, Config{
		AdvertiseStrategy: Random, LookupStrategy: Random,
		AdvertiseSize: 16, LookupSize: 10,
		LookupTimeout: 10, ReadvertiseSecs: 5,
	})
	w.advertise(3, "k", "v")
	w.net.Fail(3)
	w.net.Revive(3)
	w.sys.ResetNode(3)
	if _, ok := w.sys.Store(3).Get("k"); ok {
		t.Fatal("store survived ResetNode")
	}
	before := w.sys.Counters().Readvertises
	w.e.Run(w.e.Now() + 20)
	if got := w.sys.Counters().Readvertises; got != before {
		t.Fatalf("reset node still re-advertised %d times", got-before)
	}
}
