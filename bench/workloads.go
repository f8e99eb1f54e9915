package main

import (
	"probquorum/internal/netstack"
	"probquorum/internal/quorum"
)

// workload is one benchmark input: a stack configuration, a quorum mix and
// an offered load. Everything here is fixed; a run adds only the arrival
// seed and the measuring time.
type workload struct {
	name string
	why  string // one line, copied into BENCHMARK.json

	// Stack.
	n                             int
	stack                         netstack.StackKind
	cellNoise                     bool
	neighbors                     netstack.NeighborMode
	router                        routerKind
	lazyMembers                   bool
	speedMin, speedMax, pauseSecs float64 // random waypoint; speedMax 0 = static
	churnRate                     float64 // fails/s and joins/s during the issue window
	// netSeed seeds the engine: placement, mobility, MAC back-off,
	// membership draws, churn. It is part of the workload, not of the run —
	// --seed varies the operations offered to one and the same network.
	netSeed int64

	// Quorum layer (advertise is always RANDOM).
	lookup           quorum.Strategy
	epsilon          float64 // Corollary 5.3 target miss probability
	sizeRatio        float64 // |Qℓ|/|Qa|
	lookupRetries    int
	localRepair      bool
	lookupTimeout    float64
	advertiseTimeout float64

	// Load.
	warmupSecs float64 // simulated seconds before seeding
	keys       int     // key space
	// seedCopies is how many advertises, from different nodes, seed each key
	// in set-up: the replication periodic re-advertising would have reached.
	seedCopies  int
	seedGapSecs float64 // simulated seconds between two seeding advertises
	ratePerNode float64 // ops per simulated second per node
	writeShare  float64
	// simPerHostSec converts --seconds into the simulated issue window: the
	// window is seconds·simPerHostSec, calibrated so that window plus drain
	// take about --seconds of host time on the reference host (README.md).
	// The work of a run is therefore a pure function of (seed, seconds).
	simPerHostSec float64
}

// drainSecs is the simulated time after the last arrival in which every op
// must settle: the lookup retry ladder plus the advertise deadline.
func (wl *workload) drainSecs() float64 {
	return wl.lookupTimeout*float64(1+wl.lookupRetries) + wl.advertiseTimeout
}

// issueWindow is the simulated length of the arrival process for a run
// measuring `seconds` of host time.
func (wl *workload) issueWindow(seconds float64) float64 {
	return seconds * wl.simPerHostSec
}

// ops is the number of operations a run of `seconds` issues. It is fixed by
// the rate and the window — the Poisson process is conditioned on its count —
// so that every seed offers the same amount of work.
func (wl *workload) ops(seconds float64) int {
	k := int(wl.ratePerNode*float64(wl.n)*wl.issueWindow(seconds) + 0.5)
	if k < 1 {
		k = 1
	}
	return k
}

// workloads lists the four benchmark inputs. Each exists because one layer
// does most of the work in it and little in another (README.md has the
// measured shares).
var workloads = []*workload{
	{
		name: "paper-sinr-aodv",
		why:  "The paper's section 8 setting: n=200, SINR+DCF, heartbeats, real AODV, waypoint mobility, RANDOMxUNIQUE-PATH 27/53, 1% writes (96 floods). PHY, MAC, engine and AODV control traffic do the work.",
		n:    200, stack: netstack.StackSINR, neighbors: netstack.NeighborsHeartbeat,
		router: routerAODV, speedMin: 0.5, speedMax: 2, pauseSecs: 30, netSeed: 1,
		lookup: quorum.UniquePath, epsilon: 0.001, sizeRatio: 2,
		lookupRetries: 1, localRepair: true, lookupTimeout: 10, advertiseTimeout: 20,
		warmupSecs: 30, keys: 32, seedCopies: 1, seedGapSecs: 1, ratePerNode: 0.1, writeShare: 0.01,
		simPerHostSec: 48,
	},
	{
		name: "ideal-walk-read",
		why:  "Smallest op: n=1000, ideal MAC, oracle neighbours, read-only UNIQUE-PATH walks 79/79 at 4 ops/s/node. Go runtime and ideal MAC do the work, PHY and routing none: a change there must show nothing.",
		n:    1000, stack: netstack.StackIdeal, neighbors: netstack.NeighborsOracle,
		router: routerOracleBFS, netSeed: 1,
		lookup: quorum.UniquePath, epsilon: 0.002, sizeRatio: 1,
		lookupTimeout: 10, advertiseTimeout: 20,
		warmupSecs: 5, keys: 128, seedCopies: 1, seedGapSecs: 0.1, ratePerNode: 4, writeShare: 0,
		simPerHostSec: 4,
	},
	{
		name: "ideal-routed-mixed",
		why:  "Same quorum layer used the other way: n=600, ideal MAC, oracle router without route cache, RANDOMxRANDOM 53/53, 30% writes. Per-hop BFS and neighbour lists do the work.",
		n:    600, stack: netstack.StackIdeal, neighbors: netstack.NeighborsOracle,
		router: routerOracleBFS, netSeed: 1,
		lookup: quorum.Random, epsilon: 0.01, sizeRatio: 1,
		lookupTimeout: 10, advertiseTimeout: 20,
		warmupSecs: 5, keys: 256, seedCopies: 1, seedGapSecs: 0.1, ratePerNode: 0.1, writeShare: 0.30,
		simPerHostSec: 4.2,
	},
	{
		name: "scale-sinr-churn",
		why:  "Scale posture: n=10000, SINR with cell noise, route-tree cache, lazy membership, churn 0.5+0.5/s, walks 48/480. Only workload with working set beyond cache; guards heap and set-up.",
		n:    10000, stack: netstack.StackSINR, cellNoise: true, neighbors: netstack.NeighborsOracle,
		router: routerOracleTrees, lazyMembers: true, churnRate: 0.5, netSeed: 1,
		lookup: quorum.UniquePath, epsilon: 0.1, sizeRatio: 10,
		lookupRetries: 1, lookupTimeout: 10, advertiseTimeout: 20,
		warmupSecs: 2, keys: 16, seedCopies: 3, seedGapSecs: 2, ratePerNode: 0.005, writeShare: 0.048,
		simPerHostSec: 4,
	},
}

// smoke shrinks a workload to test size: few nodes, a sub-second window and
// a short drain, enough to print every metric but to measure nothing.
func (wl *workload) smoke() *workload {
	s := *wl
	if s.n > 100 {
		s.n = 100
	}
	s.warmupSecs = 0.5
	if s.neighbors == netstack.NeighborsHeartbeat {
		// Heartbeat discovery needs a full beacon period before any walk or
		// route can start; the oracle provider stands in at smoke size.
		s.neighbors = netstack.NeighborsOracle
	}
	s.keys = 4
	s.ratePerNode = 0.4
	s.churnRate = s.churnRate * 4
	s.lookupTimeout, s.advertiseTimeout = 0.5, 0.5
	s.simPerHostSec = 1
	return &s
}

func findWorkload(name string) *workload {
	for _, wl := range workloads {
		if wl.name == name {
			return wl
		}
	}
	return nil
}
