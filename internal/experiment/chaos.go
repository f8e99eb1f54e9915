package experiment

import (
	"fmt"

	"probquorum/internal/check"
	"probquorum/internal/faults"
	"probquorum/internal/netstack"
	"probquorum/internal/quorum"
	"probquorum/internal/register"
)

// The chaos harness stresses the stack along the network axis — partitions
// that heal, lossy/duplicating/reordering links, blackhole relays, jamming
// bursts — with the invariant checkers of internal/check armed, and
// measures how far the ε-intersection guarantee degrades during an episode
// and how completely it recovers after healing. The hard invariants
// (exactly-once op resolution, no delivery to dead or partitioned nodes,
// frame conservation) must hold at every severity; the probabilistic
// metrics (intersection, staleness) are the paper's §2.5/§6.1 degradation
// and are reported against the 1−ε bound rather than asserted.

// ChaosScenario describes one chaos run: a three-phase lookup workload
// (pre-fault, during-fault, post-heal) plus a register read/write workload,
// with a fault schedule active during the middle phase. The run is on the
// ideal stack; its shape is the constants below.
type ChaosScenario struct {
	// N is the node count (default 50).
	N int
	// Seed drives all randomness, including the fault schedule.
	Seed int64
	// Severity in [0,1] scales the randomized fault schedule.
	Severity float64
	// Schedule overrides the randomized schedule with an explicit one
	// (still confined to the fault phase).
	Schedule []faults.Episode
	// LookupRetries / RetryBackoffSecs / ReadvertiseSecs arm the
	// recovery mechanisms (zero = off), as in the §6.1 burst comparison.
	LookupRetries    int
	RetryBackoffSecs float64
	ReadvertiseSecs  float64
}

const (
	// chaosEpsilon sizes the RANDOM×RANDOM biquorum.
	chaosEpsilon = 0.1
	// chaosEpisodes is the number of fault episodes a randomized schedule
	// draws.
	chaosEpisodes = 3
	// chaosFaultSpanSecs is the fault phase length; every episode starts and
	// heals inside it. chaosPhaseSpanSecs is the pre- and post-phase length.
	chaosFaultSpanSecs = 40.0
	chaosPhaseSpanSecs = 15.0
	// chaosAdvertisements keys are published before the phases; each phase
	// issues chaosLookupsPerPhase lookups and chaosRegisterOpsPerPhase
	// register write+read pairs.
	chaosAdvertisements      = 12
	chaosLookupsPerPhase     = 12
	chaosRegisterOpsPerPhase = 2
)

// ChaosResult is the outcome of one chaos run (or a cross-seed aggregate).
type ChaosResult struct {
	// Pre, During, Post tally each phase's lookups, attributed by issue
	// time. Post.IntersectRatio() is what Lemma 5.2 bounds below by 1−ε
	// once the faults have healed.
	Pre, During, Post Tally
	// Report is the invariant checkers' verdict.
	Report check.Report
	// Fault-pipeline counters observed over the run.
	Dupes, Reorders, PartitionDrops, FaultDrops int64
	// Runs is how many runs this result aggregates.
	Runs int
}

// RunChaos executes one chaos scenario with checkers armed. The run is
// deterministic per Seed: the engine, workload, and fault schedule all draw
// from the run's own engine streams.
func RunChaos(cs ChaosScenario) ChaosResult {
	if cs.N == 0 {
		cs.N = 50
	}
	var sc Scenario
	sc.N, sc.Seed = cs.N, cs.Seed
	sc.Link.AvgDegree, sc.Link.Stack = 15, netstack.StackIdeal
	sc.Members.RefreshSecs = 5
	qa, ql := quorum.SizeForEpsilon(cs.N, chaosEpsilon, 1)
	sc.Quorum = mixConfig(cs.N, quorum.Random, quorum.Random)
	sc.Quorum.AdvertiseSize, sc.Quorum.LookupSize = qa, ql
	sc.Quorum.Merge = register.Merge
	sc.Quorum.LookupRetries = cs.LookupRetries
	sc.Quorum.RetryBackoffSecs = cs.RetryBackoffSecs
	sc.Quorum.ReadvertiseSecs = cs.ReadvertiseSecs
	sc.fillDefaults()

	st := sc.build()
	engine, net, sys, suite := st.Engine, st.Net, st.Sys, st.Suite
	inj := st.Faults()
	rng := engine.NewStream()
	scheduleRng := engine.NewStream()

	engine.Run(sc.WarmupSecs)

	// Publish the keys the lookup workload will search for.
	keys := make([]string, chaosAdvertisements)
	for i := range keys {
		keys[i] = fmt.Sprintf("chaos-key-%d", i)
		i := i
		engine.Schedule(float64(i)*0.5, func() {
			suite.Advertise(net.RandomAliveID(rng), keys[i], "v", nil)
		})
	}
	engine.Run(engine.Now() + float64(chaosAdvertisements)*0.5 + 20)

	reg := suite.WrapRegister(register.New(sys, "chaos-register", register.Config{}))
	regSeq := 0

	// issuePhase spreads the phase's lookups and register ops over span
	// seconds, then runs the engine to the end of the span. Outcomes are
	// attributed to the phase that issued them even if they resolve
	// later (retries can outlive an episode — that is the recovery).
	issuePhase := func(ph *Tally, span float64) {
		gap := span / float64(chaosLookupsPerPhase+1)
		for i := 0; i < chaosLookupsPerPhase; i++ {
			i := i
			engine.Schedule(float64(i+1)*gap, func() {
				ph.Lookups++
				suite.Lookup(net.RandomAliveID(rng), keys[rng.Intn(len(keys))], ph.record)
			})
		}
		for i := 0; i < chaosRegisterOpsPerPhase; i++ {
			regSeq++
			data := fmt.Sprintf("chaos-data-%d", regSeq)
			at := span * (float64(i) + 0.3) / float64(chaosRegisterOpsPerPhase)
			engine.Schedule(at, func() {
				reg.Write(net.RandomAliveID(rng), data, nil)
			})
			engine.Schedule(at+span*0.3/float64(chaosRegisterOpsPerPhase), func() {
				reg.Read(net.RandomAliveID(rng), nil)
			})
		}
		engine.Run(engine.Now() + span)
	}

	var res ChaosResult
	res.Runs = 1

	// Phase 1: fault-free baseline.
	issuePhase(&res.Pre, chaosPhaseSpanSecs)

	// Phase 2: the fault schedule goes live.
	schedule := cs.Schedule
	if schedule == nil {
		schedule = faults.RandomSchedule(scheduleRng, faults.ScheduleConfig{
			HorizonSecs: chaosFaultSpanSecs,
			Episodes:    chaosEpisodes,
			Severity:    cs.Severity,
			N:           cs.N,
		})
	}
	inj.Schedule(schedule)
	issuePhase(&res.During, chaosFaultSpanSecs)

	// Settle: every episode has healed; let in-flight retries resolve
	// before the post-heal measurement.
	engine.Run(engine.Now() + 10)

	// Phase 3: post-heal — the regime where the 1−ε bound must hold
	// again.
	issuePhase(&res.Post, chaosPhaseSpanSecs)

	// Drain past the slowest possible resolution: the full retry ladder
	// plus a safety margin.
	engine.Run(engine.Now() + sys.Config().LookupHorizon() + 15)

	res.Report = suite.Final()
	stats := net.Stats()
	res.Dupes = stats.Get(netstack.CtrDupes)
	res.Reorders = stats.Get(netstack.CtrReorders)
	res.PartitionDrops = stats.Get(netstack.CtrPartitionDrops)
	res.FaultDrops = stats.Get(netstack.CtrFaultDrops)
	return res
}

// RunChaosSweep executes the scenarios on a worker pool of `parallel`
// goroutines (0 = GOMAXPROCS). Each run owns its whole stack, so results
// are bit-identical to running serially, in any pool size.
func RunChaosSweep(scs []ChaosScenario, parallel int) []ChaosResult {
	out := make([]ChaosResult, len(scs))
	forEachJob(len(scs), parallel, func(j int) {
		out[j] = RunChaos(scs[j])
	})
	return out
}

// mergeChaos aggregates per-seed chaos results into one: everything sums.
func mergeChaos(runs []ChaosResult) ChaosResult {
	var agg ChaosResult
	for _, one := range runs {
		agg.Pre.add(one.Pre)
		agg.During.add(one.During)
		agg.Post.add(one.Post)
		agg.Report.Add(one.Report)
		agg.Dupes += one.Dupes
		agg.Reorders += one.Reorders
		agg.PartitionDrops += one.PartitionDrops
		agg.FaultDrops += one.FaultDrops
		agg.Runs += one.Runs
	}
	return agg
}
