// Package probquorum is a library implementation of probabilistic quorum
// systems for wireless ad hoc networks, after Friedman, Kliot and Avin,
// "Probabilistic Quorum Systems in Wireless Ad Hoc Networks" (DSN 2008 /
// ACM TOCS 2010).
//
// The library bundles a deterministic discrete-event wireless simulator
// (SINR radio, 802.11-style MAC, AODV routing, random-waypoint mobility)
// with the paper's probabilistic biquorum protocols: RANDOM, RANDOM-OPT,
// PATH, UNIQUE-PATH and FLOODING access strategies, asymmetric
// mix-and-match combinations, quorum sizing per Corollary 5.3 and
// Lemma 5.6, and the engineering techniques of Sections 6–7 (random-walk
// salvation, reply-path reduction and local repair, early halting,
// caching).
//
// # Quick start
//
//	c := probquorum.NewCluster(probquorum.ClusterConfig{Nodes: 100, Seed: 1})
//	c.Advertise(3, "printer", "room-217", nil)
//	c.RunFor(5)
//	c.Lookup(42, "printer", func(r probquorum.LookupResult) {
//		fmt.Println("found:", r.Value)
//	})
//	c.RunFor(30)
//
// See examples/ for runnable programs and cmd/pqexp for the experiment
// harness that regenerates the paper's figures.
package probquorum

import (
	"probquorum/internal/check"
	"probquorum/internal/churn"
	"probquorum/internal/experiment"
	"probquorum/internal/faults"
	"probquorum/internal/membership"
	"probquorum/internal/netstack"
	"probquorum/internal/quorum"
	"probquorum/internal/stack"
)

// Re-exported quorum types. See the quorum package docs on each.
type (
	// Strategy names a quorum access strategy.
	Strategy = quorum.Strategy
	// Config selects the strategy mix and engineering options.
	Config = quorum.Config
	// LookupResult reports a lookup's outcome.
	LookupResult = quorum.LookupResult
	// AdvertiseResult reports an advertise's outcome.
	AdvertiseResult = quorum.AdvertiseResult
	// Counters aggregates protocol diagnostics.
	Counters = quorum.Counters
	// Store is a node's local slice of the dictionary.
	Store = quorum.Store
	// OpRef is an opaque operation handle.
	OpRef = quorum.OpRef
)

// Access strategies (Section 4 of the paper, plus the expanding-ring variant
// it describes, which is a lookup strategy only).
const (
	Random        = quorum.Random
	RandomOpt     = quorum.RandomOpt
	Path          = quorum.Path
	UniquePath    = quorum.UniquePath
	Flooding      = quorum.Flooding
	ExpandingRing = quorum.ExpandingRing
)

// Link-layer fidelities.
const (
	// StackSINR is the paper-faithful cumulative-noise radio with an
	// 802.11-style MAC.
	StackSINR = netstack.StackSINR
	// StackIdeal is a fast contention-free link layer.
	StackIdeal = netstack.StackIdeal
)

// StackKind selects the link-layer fidelity.
type StackKind = netstack.StackKind

// Fault-injection and invariant-checking re-exports; see internal/faults
// and internal/check.
type (
	// FaultEpisode is one timed fault: a partition, link fault (loss,
	// duplication, delay jitter, blackhole) or jamming burst that starts
	// at Start and heals after Duration.
	FaultEpisode = faults.Episode
	// FaultKind selects the episode's fault family.
	FaultKind = faults.Kind
	// CheckReport is the invariant checkers' verdict for a run; see
	// Cluster.CheckReport.
	CheckReport = check.Report
)

// Fault families for FaultEpisode.Kind.
const (
	FaultPartition = faults.Partition
	FaultLoss      = faults.Loss
	FaultDuplicate = faults.Duplicate
	FaultJitter    = faults.Jitter
	FaultBlackhole = faults.Blackhole
	FaultJam       = faults.Jam
)

// Experiment harness re-exports; see internal/experiment.
type (
	// Scenario describes one simulation run of the paper's workload. Its
	// stack options (N, Seed, Quorum, OracleRouting, Link.Stack, …) are
	// promoted from an embedded spec, which a keyed literal cannot name:
	// set them by assignment (sc.N = 60; sc.Link.Stack = StackIdeal).
	Scenario = experiment.Scenario
	// Result is a scenario's measurements.
	Result = experiment.Result
	// Profile scales the figure experiments.
	Profile = experiment.Profile
)

// RunScenario executes one scenario (see Scenario for the knobs).
func RunScenario(sc Scenario) Result { return experiment.Run(sc) }

// RunScenarioSeeds averages a scenario over consecutive seeds.
func RunScenarioSeeds(sc Scenario, seeds int) Result { return experiment.RunSeeds(sc, seeds) }

// Sizing helpers (Corollary 5.3 and Lemma 5.6).
var (
	// SizeForEpsilon returns |Qa|, |Qℓ| with |Qa|·|Qℓ| ≥ n·ln(1/ε).
	SizeForEpsilon = quorum.SizeForEpsilon
	// NonIntersectProb is the mix-and-match miss bound exp(−qa·qℓ/n).
	NonIntersectProb = quorum.NonIntersectProb
	// OptimalSizeRatio is Lemma 5.6's cost-minimizing |Qℓ|/|Qa|.
	OptimalSizeRatio = quorum.OptimalSizeRatio
	// OptimalSizes combines sizing with the optimal ratio.
	OptimalSizes = quorum.OptimalSizes
	// DefaultQuorumConfig is the paper's favoured RANDOM × UNIQUE-PATH
	// mix with default sizes for an n-node network.
	DefaultQuorumConfig = quorum.DefaultConfig
)

// ClusterConfig configures a simulated ad hoc network with a quorum system
// on every node.
type ClusterConfig struct {
	// Nodes is the network size (required).
	Nodes int
	// AvgDegree is the target density (default 10, the paper's default).
	AvgDegree float64
	// Stack selects fidelity (default StackIdeal for library users; use
	// StackSINR for paper-faithful radio behaviour).
	Stack StackKind
	// MaxSpeed enables random-waypoint mobility between 0.5 m/s and
	// MaxSpeed with 30 s pauses; zero keeps the network static.
	MaxSpeed float64
	// Quorum overrides the quorum configuration; zero value uses
	// DefaultQuorumConfig(Nodes). Set Quorum.LookupRetries /
	// Quorum.ReadvertiseSecs for graceful degradation under churn.
	Quorum Config
	// Seed drives all randomness (default 1).
	Seed int64
	// RxLossProb drops each received frame at the receiver with this
	// probability — probabilistic per-hop loss injection.
	RxLossProb float64
	// ChurnFailRate / ChurnJoinRate start a continuous Poisson churn
	// process (nodes per second) after warm-up. Joins reboot previously
	// crashed nodes with volatile state cleared; with no crashes yet the
	// join is skipped. Inspect progress with ChurnStats.
	ChurnFailRate, ChurnJoinRate float64
	// Faults is a schedule of fault episodes installed right after
	// warm-up: each episode's Start is relative to the cluster being
	// ready. Ad hoc faults can also be driven with Cluster.Partition and
	// Cluster.Heal; CheckReport reads out the invariant checkers that are
	// armed on every cluster.
	Faults []FaultEpisode
	// Adaptive closes the sizing loop: the membership layer continuously
	// estimates the network size from random-walk collisions (§6.3
	// birthday paradox) and an adaptation controller re-derives the
	// quorum sizes — and the re-advertise period, when
	// Quorum.ReadvertiseSecs is set — as the estimate drifts. Inspect
	// with SizeEstimate and AdaptStatus.
	Adaptive bool
}

// ChurnStats counts churn-process events; see Cluster.ChurnStats.
type ChurnStats = churn.Stats

// Adaptive-sizing re-exports; see internal/quorum and internal/membership.
type (
	// AdaptStatus snapshots the controller's state.
	AdaptStatus = quorum.AdaptStatus
	// SizeEstimate is a continuous network-size estimate with confidence
	// bounds (AtLeast marks a zero-collision lower bound).
	SizeEstimate = membership.Estimate
)

// Cluster is a simulated ad hoc network running the quorum system. It wraps
// the assembled stack (engine, network, routing, membership, quorum layer,
// invariant checkers) behind a small API; advance simulated time with RunFor.
type Cluster struct {
	st       *stack.Stack
	churn    *churn.Process
	injector *faults.Injector
	adapter  *quorum.Controller
}

// NewCluster builds a cluster and warms it up (neighbor discovery and
// membership are ready on return).
func NewCluster(cfg ClusterConfig) *Cluster {
	if cfg.Nodes <= 0 {
		panic("probquorum: ClusterConfig.Nodes must be positive")
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.Stack == 0 {
		cfg.Stack = StackIdeal
	}
	if cfg.Quorum.AdvertiseStrategy == 0 && cfg.Quorum.LookupStrategy == 0 {
		cfg.Quorum = quorum.DefaultConfig(cfg.Nodes)
	}
	sp := stack.Spec{
		N: cfg.Nodes, Seed: cfg.Seed, Quorum: cfg.Quorum,
		Link: netstack.Config{
			AvgDegree: cfg.AvgDegree, Stack: cfg.Stack, RxLossProb: cfg.RxLossProb,
		},
		SpeedMax: cfg.MaxSpeed,
	}
	if cfg.Adaptive {
		sp.Members.Estimation = membership.EstimationConfig{Enable: true}
	}
	st := stack.Build(sp)
	c := &Cluster{st: st, injector: st.Faults()}
	if cfg.Adaptive {
		c.adapter = quorum.NewController(st.Sys, st.Members, quorum.AdaptConfig{})
		st.Suite.WatchController(c.adapter)
	}
	c.RunFor(25) // neighbor discovery warm-up
	if len(cfg.Faults) > 0 {
		// Episode starts are relative to the cluster being ready.
		c.injector.Schedule(cfg.Faults)
	}
	if cfg.ChurnFailRate > 0 || cfg.ChurnJoinRate > 0 {
		// No join slots: every join reboots a crashed node.
		c.churn = st.Churn(churn.Config{
			FailRate: cfg.ChurnFailRate, JoinRate: cfg.ChurnJoinRate,
		})
		if c.adapter != nil {
			// Crash events feed the controller's churn-rate meter.
			c.churn.OnFail(func(int) { c.adapter.NoteFail() })
		}
		c.churn.Start()
	}
	return c
}

// RunFor advances simulated time by d seconds.
func (c *Cluster) RunFor(d float64) { c.st.Engine.Run(c.st.Engine.Now() + d) }

// Now returns the current simulated time in seconds.
func (c *Cluster) Now() float64 { return c.st.Engine.Now() }

// N returns the node count.
func (c *Cluster) N() int { return c.st.Net.N() }

// Advertise publishes key→value from node origin to an advertise quorum.
// Advance time with RunFor for the operation to complete. The operation is
// routed through the invariant checkers; see CheckReport.
func (c *Cluster) Advertise(origin int, key, value string, done func(AdvertiseResult)) OpRef {
	return c.st.Suite.Advertise(origin, key, value, done)
}

// Lookup searches for key from node origin. done fires with the result
// (possibly a timeout miss) as simulated time advances. The operation is
// routed through the invariant checkers; see CheckReport.
func (c *Cluster) Lookup(origin int, key string, done func(LookupResult)) OpRef {
	return c.st.Suite.Lookup(origin, key, done)
}

// LookupWait is a convenience that issues a lookup and advances time until
// it completes.
func (c *Cluster) LookupWait(origin int, key string) LookupResult {
	var res LookupResult
	finished := false
	c.Lookup(origin, key, func(r LookupResult) { res = r; finished = true })
	for !finished {
		c.RunFor(1)
	}
	return res
}

// AdvertiseWait issues an advertise and advances time until it completes.
func (c *Cluster) AdvertiseWait(origin int, key, value string) AdvertiseResult {
	var res AdvertiseResult
	finished := false
	c.Advertise(origin, key, value, func(r AdvertiseResult) { res = r; finished = true })
	for !finished {
		c.RunFor(1)
	}
	return res
}

// ScheduleFaults installs fault episodes with Start measured from the
// current simulated time (ClusterConfig.Faults does the same at
// construction).
func (c *Cluster) ScheduleFaults(episodes ...FaultEpisode) {
	c.injector.Schedule(episodes)
}

// Partition splits the network into the given node groups: traffic between
// different groups is dropped at the receiver until Heal. Nodes not listed
// in any group form an implicit extra group.
func (c *Cluster) Partition(groups ...[]int) {
	c.injector.PartitionSets(groups)
}

// Heal removes an active partition (scheduled or ad hoc).
func (c *Cluster) Heal() { c.injector.Heal() }

// CheckReport returns the invariant checkers' verdict so far: violations
// of the hard invariants (exactly-once resolution, no delivery to dead or
// partitioned nodes, frame conservation) plus the probabilistic tallies.
// Operations still in flight count as both Outstanding and an
// "op-never-resolved" violation, so for the authoritative verdict drain
// them first by advancing time with RunFor past the lookup timeout.
func (c *Cluster) CheckReport() CheckReport { return c.st.Suite.Final() }

// Fail crashes a node (it stops sending, receiving and interfering).
func (c *Cluster) Fail(id int) { c.st.Net.Fail(id) }

// Revive rejoins a failed node.
func (c *Cluster) Revive(id int) { c.st.Net.Revive(id) }

// NumAlive returns the number of live nodes.
func (c *Cluster) NumAlive() int { return c.st.Net.NumAlive() }

// Alive reports whether node id is currently up.
func (c *Cluster) Alive(id int) bool { return c.st.Net.Alive(id) }

// Store returns node id's local dictionary slice.
func (c *Cluster) Store(id int) *Store { return c.st.Sys.Store(id) }

// Counters returns protocol diagnostics.
func (c *Cluster) Counters() Counters { return c.st.Sys.Counters() }

// Messages returns the cumulative application-message count (network-layer
// transmissions of quorum traffic).
func (c *Cluster) Messages() int64 {
	return c.st.Net.Stats().Get(netstack.CtrAppMsgs)
}

// RoutingMessages returns the cumulative AODV control-message count.
func (c *Cluster) RoutingMessages() int64 {
	return c.st.Net.Stats().Get(netstack.CtrRoutingMsgs)
}

// SetLookupSize adjusts |Qℓ| at runtime (Section 6.1 adaptation).
func (c *Cluster) SetLookupSize(k int) { c.st.Sys.SetLookupSize(k) }

// Resize adjusts both quorum sizes at runtime. In-flight operations keep
// the sizes they were drawn with; retries re-draw at the new sizes.
func (c *Cluster) Resize(advertiseSize, lookupSize int) {
	c.st.Sys.Resize(advertiseSize, lookupSize)
}

// SizeEstimate returns the membership layer's pooled network-size estimate
// (zero-valued with OK=false unless ClusterConfig.Adaptive is set and
// enough walk evidence has accumulated).
func (c *Cluster) SizeEstimate() SizeEstimate {
	return c.st.Members.AggregateEstimate()
}

// AdaptStatus snapshots the adaptation controller (zero-valued when
// ClusterConfig.Adaptive is not set).
func (c *Cluster) AdaptStatus() AdaptStatus {
	if c.adapter == nil {
		return AdaptStatus{}
	}
	return c.adapter.Status()
}

// ChurnStats reports the continuous churn process's event counts (zero if
// no churn rates were configured).
func (c *Cluster) ChurnStats() ChurnStats {
	if c.churn == nil {
		return ChurnStats{}
	}
	return c.churn.Stats()
}

// StopChurn halts the continuous churn process.
func (c *Cluster) StopChurn() {
	if c.churn != nil {
		c.churn.Stop()
	}
}
