package experiment

import (
	"fmt"
	"os"
	"strconv"
	"testing"

	"probquorum/internal/netstack"
	"probquorum/internal/quorum"
)

// shardsScenario exercises everything the sharded-phase path touches: oracle
// routing with the route cache on (so quorum fan-outs trigger ShardedEval
// prefetches with staged installs), heartbeat neighbor discovery (the
// version/TTL validity path), lazy membership, SINR with continuous churn so
// trees invalidate and rebuild mid-run. oracleNeighbors swaps in the geometric
// provider, whose symmetric lists turn the prefetch items into lenses that
// all read the origin's field (DESIGN.md §15).
func shardsScenario(shards int, oracleNeighbors bool) Scenario {
	sc := testScenario(netstack.StackSINR, 120, 9, 8, 40, 8)
	sc.Quorum = mixConfig(sc.N, quorum.Random, quorum.Random)
	sc.ChurnFailRate, sc.ChurnJoinRate = 0.2, 0.2
	sc.OracleRouting, sc.RouteCache, sc.Members.Lazy = true, true, true
	if oracleNeighbors {
		sc.Link.Neighbors = netstack.NeighborsOracle
	}
	sc.Shards = shards
	return sc
}

// TestShardsBitIdentical is the sharded-phase determinism gate (run by make
// check): a full experiment over the route cache's parallel prefetch path
// must render bit-identically with sharding off and at widths 1, 2, 4, and
// 8, on heartbeat lists (whole trees) and on geometric ones (lenses reading
// the origin's field from every shard). CI's race-stress step overrides the
// width via PQ_SHARDS_STRESS to run one width at a time under -race with
// GORACE=halt_on_error=1, cross-checking parsafe's static audit of
// ShardedEval callbacks against the dynamic detector.
func TestShardsBitIdentical(t *testing.T) {
	widths := []int{1, 2, 4, 8}
	if s := os.Getenv("PQ_SHARDS_STRESS"); s != "" {
		w, err := strconv.Atoi(s)
		if err != nil || w < 1 {
			t.Fatalf("PQ_SHARDS_STRESS=%q is not a positive shard count", s)
		}
		widths = []int{w}
	}
	for _, exact := range []bool{false, true} {
		wantRes := fmt.Sprintf("%+v", Run(shardsScenario(0, exact)))
		for _, w := range widths {
			if got := fmt.Sprintf("%+v", Run(shardsScenario(w, exact))); got != wantRes {
				t.Errorf("Shards=%d (oracle neighbors %v) result diverged from serial run:\n got %s\nwant %s", w, exact, got, wantRes)
			}
		}
	}
}

// TestShardsResizeMidRun changes the shard width between events mid-run via
// a scheduled SetShards; the run must be unperturbed (pure throughput knob).
func TestShardsResizeMidRun(t *testing.T) {
	run := func(resize bool) string {
		st := shardsScenario(2, false).build()
		engine, net := st.Engine, st.Net
		defer engine.StopWorkers()
		if resize {
			engine.Schedule(40, func() { engine.SetShards(8) })
			engine.Schedule(80, func() { engine.SetShards(3) })
		}
		engine.Run(140)
		return net.Stats().String()
	}
	if got, want := run(true), run(false); got != want {
		t.Errorf("mid-run SetShards perturbed the run:\n got %s\nwant %s", got, want)
	}
}
