// Package workload implements the open-loop heavy-traffic generator behind
// the `pqexp load` figure: millions of concurrent quorum operations per
// run, arriving whether or not earlier ones have finished — the regime the
// ROADMAP's "heavy traffic from millions of users" north star demands,
// as opposed to the paper's closed-loop one-at-a-time figures.
//
// Arrivals are generated per node by an event-driven process with O(1)
// state and exactly one pending engine event per node:
//
//   - Poisson: exponential inter-arrivals at RatePerNode;
//   - MMPP: a 2-state Markov-modulated Poisson process (on/off burst
//     model) — exponential sojourns between an on state at RatePerNode
//     and a silent off state, simulated by competing exponentials (the
//     next event is whichever of "arrival" and "state flip" draws the
//     earlier time), so bursts and lulls need no extra timers.
//
// Keys are drawn uniformly or from a Zipf hotspot distribution
// (math/rand's NewZipf over a precomputed key table, so draws are
// deterministic per seed and allocation-free). Each arrival is a write
// (advertise) with probability WriteFraction, else a read (lookup).
//
// Open-loop does not mean unbounded: each node has a bounded in-flight
// window plus a bounded FIFO queue, mirroring a real client library. An
// arrival beyond the window is queued; beyond the queue it is shed and
// counted — under saturation the shed rate, not a memory blow-up, is the
// observable (the accounting the load figure reports per strategy).
//
// The generator is transport-agnostic: it hands each op to an IssueFunc
// and learns of completion through the callback it provides, so the
// experiment layer can route ops through the check.Suite invariant
// wrappers and time them into the netstack.Stats op-latency histogram.
// All randomness comes from one engine stream, so runs are bit-identical
// per seed at any worker-pool or engine-parallelism setting.
package workload

import (
	"fmt"
	"math"
	"math/rand"

	"probquorum/internal/sim"
)

// Arrival selects the inter-arrival process.
type Arrival int

// Arrival processes.
const (
	// Poisson issues ops with exponential inter-arrival times at
	// RatePerNode per node.
	Poisson Arrival = iota
	// MMPP modulates a Poisson process with a 2-state on/off Markov
	// chain: RatePerNode while on, silent while off, exponential sojourns
	// of mean mmppOnSecs/mmppOffSecs — the standard bursty traffic model.
	MMPP
)

// mmppOnSecs and mmppOffSecs are the MMPP mean sojourn times: short intense
// bursts, longer lulls.
const (
	mmppOnSecs  = 5.0
	mmppOffSecs = 15.0
)

// String implements fmt.Stringer.
func (a Arrival) String() string {
	switch a {
	case Poisson:
		return "poisson"
	case MMPP:
		return "mmpp"
	default:
		return fmt.Sprintf("Arrival(%d)", int(a))
	}
}

// KeyDist selects the key popularity distribution.
type KeyDist int

// Key distributions.
const (
	// Uniform draws every key with equal probability.
	Uniform KeyDist = iota
	// Zipf draws keys with the hotspot skew real workloads show: key
	// rank k is drawn with probability ∝ 1/(zipfV+k)^zipfS.
	Zipf
)

// zipfS and zipfV shape the Zipf draw (S must exceed 1 per
// math/rand.NewZipf).
const (
	zipfS = 1.2
	zipfV = 1
)

// String implements fmt.Stringer.
func (d KeyDist) String() string {
	switch d {
	case Uniform:
		return "uniform"
	case Zipf:
		return "zipf"
	default:
		return fmt.Sprintf("KeyDist(%d)", int(d))
	}
}

// Config parameterizes a generator. Zero values take the documented
// defaults.
type Config struct {
	// Arrival is the inter-arrival process (default Poisson).
	Arrival Arrival
	// RatePerNode is each node's arrival rate in ops/sec (Poisson), or
	// its on-state rate (MMPP). Default 1.
	RatePerNode float64
	// Keys is the key-space size (default 1024). Key strings are built
	// once at construction so the issue path never allocates.
	Keys int
	// KeyDist is the popularity distribution (default Uniform).
	KeyDist KeyDist
	// WriteFraction is the probability an op is a write/advertise
	// (default 0.1 — a read-heavy location service).
	WriteFraction float64
	// MaxInFlight is the per-node in-flight window (default 8). Arrivals
	// that find it full wait in a FIFO of twice its size; beyond that they
	// are shed.
	MaxInFlight int
	// DurationSecs is the issue phase length from Start (required > 0);
	// arrivals stop after it, queued ops still drain.
	DurationSecs float64
}

func (c *Config) fillDefaults() {
	if c.RatePerNode == 0 {
		c.RatePerNode = 1
	}
	if c.Keys == 0 {
		c.Keys = 1024
	}
	if c.WriteFraction == 0 {
		c.WriteFraction = 0.1
	}
	if c.MaxInFlight == 0 {
		c.MaxInFlight = 8
	}
}

// validate panics, naming the field, on a config New cannot run: one whose
// generator would never let the clock advance or never stop issuing, or
// whose sizes are negative.
func (c *Config) validate() {
	bad := func(field, want string, got any) {
		panic(fmt.Sprintf("workload: Config.%s must be %s, got %v", field, want, got))
	}
	switch {
	case c.Arrival != Poisson && c.Arrival != MMPP:
		bad("Arrival", "Poisson or MMPP", c.Arrival)
	case !(c.RatePerNode > 0) || math.IsInf(c.RatePerNode, 1):
		bad("RatePerNode", "positive and finite", c.RatePerNode)
	case c.Keys < 1:
		bad("Keys", "positive", c.Keys)
	case c.KeyDist != Uniform && c.KeyDist != Zipf:
		bad("KeyDist", "Uniform or Zipf", c.KeyDist)
	case !(c.WriteFraction >= 0 && c.WriteFraction <= 1):
		bad("WriteFraction", "in [0, 1]", c.WriteFraction)
	case c.MaxInFlight < 1:
		bad("MaxInFlight", "positive", c.MaxInFlight)
	case !(c.DurationSecs > 0) || math.IsInf(c.DurationSecs, 1):
		bad("DurationSecs", "positive and finite", c.DurationSecs)
	}
}

// Op is one generated operation.
type Op struct {
	// Node is the issuing node id.
	Node int
	// Key is the target key (from the generator's precomputed table).
	Key string
	// Write is true for an advertise, false for a lookup.
	Write bool
}

// IssueFunc launches one operation on the system under test. It MUST
// arrange for done to be called exactly once when the operation completes
// (the quorum layer's completion callbacks guarantee this); hit reports a
// successful lookup (ignored for writes). done may be called synchronously.
type IssueFunc func(op Op, done func(hit bool))

// Stats is the generator's accounting. All fields are totals since Start.
type Stats struct {
	// Issued counts ops handed to the IssueFunc; Reads+Writes == Issued.
	Issued, Reads, Writes int64
	// Completed counts done callbacks received; Hits counts completed
	// reads that hit.
	Completed, Hits int64
	// Queued counts arrivals that waited for a window slot before issue.
	Queued int64
	// Shed counts arrivals dropped because both the in-flight window and
	// the queue were full — the saturation signal.
	Shed int64
	// PeakInFlight and PeakQueue are high-water marks across all nodes.
	PeakInFlight, PeakQueue int
}

// nodeState is one node's O(1) generator state.
type nodeState struct {
	id       int
	inFlight int
	on       bool          // MMPP modulation state
	queue    sim.Queue[Op] // bounded by 2×MaxInFlight
}

// Generator drives an open-loop workload against a set of nodes. Construct
// with New, arm with Start; it is engine-driven from there.
type Generator struct {
	engine *sim.Engine
	cfg    Config
	issue  IssueFunc
	rng    *rand.Rand
	zipf   *rand.Zipf
	keys   []string
	nodes  []nodeState
	// perNodeIssued counts issued ops per node for the load-skew metric.
	perNodeIssued []int64
	deadline      float64
	started       bool
	stats         Stats
}

// New builds a generator issuing ops from the given node ids through
// issue. All randomness derives from one stream of engine, so the op
// sequence is a pure function of the engine seed.
func New(engine *sim.Engine, cfg Config, nodes []int, issue IssueFunc) *Generator {
	cfg.fillDefaults()
	cfg.validate()
	if len(nodes) == 0 {
		panic("workload: no nodes")
	}
	g := &Generator{
		engine:        engine,
		cfg:           cfg,
		issue:         issue,
		rng:           engine.NewStream(),
		keys:          make([]string, cfg.Keys),
		nodes:         make([]nodeState, len(nodes)),
		perNodeIssued: make([]int64, len(nodes)),
	}
	for i := range g.keys {
		g.keys[i] = fmt.Sprintf("key-%d", i)
	}
	if cfg.KeyDist == Zipf {
		g.zipf = rand.NewZipf(g.rng, zipfS, zipfV, uint64(cfg.Keys-1))
	}
	for i, id := range nodes {
		g.nodes[i] = nodeState{id: id, on: true}
	}
	return g
}

// Start begins the issue phase: DurationSecs of arrivals from now. Each
// node gets an independent arrival chain; MMPP nodes draw a random initial
// state so bursts are desynchronized.
func (g *Generator) Start() {
	if g.started {
		panic("workload: Start called twice")
	}
	g.started = true
	g.deadline = g.engine.Now() + g.cfg.DurationSecs
	for i := range g.nodes {
		if g.cfg.Arrival == MMPP {
			// Stationary initial state: on with probability
			// on/(on+off).
			g.nodes[i].on = g.rng.Float64() < mmppOnSecs/(mmppOnSecs+mmppOffSecs)
		}
		g.scheduleNext(i)
	}
}

// Stats returns the accounting so far.
func (g *Generator) Stats() Stats { return g.stats }

// LoadSkew summarizes issue-load imbalance as max/mean over nodes (1.0 is
// perfectly balanced). With Zipf keys the *issue* load stays balanced —
// the skew that matters is per-key — but under MMPP bursts and shedding
// the realized per-node load diverges, which is what this reports.
func (g *Generator) LoadSkew() float64 {
	var max, sum int64
	for _, c := range g.perNodeIssued {
		if c > max {
			max = c
		}
		sum += c
	}
	if sum == 0 {
		return 0
	}
	mean := float64(sum) / float64(len(g.perNodeIssued))
	return float64(max) / mean
}

// scheduleNext arms node i's next arrival (or MMPP state flip) — the one
// pending event per node.
func (g *Generator) scheduleNext(i int) {
	if g.cfg.Arrival != MMPP {
		g.armArrival(i, g.rng.ExpFloat64()/g.cfg.RatePerNode, false)
		return
	}
	// MMPP: an off node is silent until its lull ends. An on node runs
	// competing exponentials — whichever of arrival and burst end fires
	// first wins; the loser is redrawn next round (memorylessness makes the
	// discard exact, not an approximation).
	if !g.nodes[i].on {
		g.armArrival(i, g.rng.ExpFloat64()*mmppOffSecs, true)
		return
	}
	dtArrival := g.rng.ExpFloat64() / g.cfg.RatePerNode
	if dtFlip := g.rng.ExpFloat64() * mmppOnSecs; dtFlip < dtArrival {
		g.armArrival(i, dtFlip, true)
		return
	}
	g.armArrival(i, dtArrival, false)
}

// armArrival schedules node i's next event: a state flip or an arrival.
func (g *Generator) armArrival(i int, dt float64, flip bool) {
	g.engine.Schedule(dt, func() {
		if g.engine.Now() >= g.deadline {
			return // issue phase over: let the chain die
		}
		if flip {
			g.nodes[i].on = !g.nodes[i].on
		} else {
			g.arrive(i)
		}
		g.scheduleNext(i)
	})
}

// arrive processes one arrival at node i: issue within the window, queue
// if the window is full, shed if the queue is full too.
func (g *Generator) arrive(i int) {
	op := Op{Node: g.nodes[i].id, Key: g.drawKey(), Write: g.rng.Float64() < g.cfg.WriteFraction}
	n := &g.nodes[i]
	switch {
	case n.inFlight < g.cfg.MaxInFlight:
		g.launch(i, op)
	case n.queue.Len() < 2*g.cfg.MaxInFlight:
		g.stats.Queued++
		n.queue.Push(op)
		g.stats.PeakQueue = max(g.stats.PeakQueue, n.queue.Len())
	default:
		g.stats.Shed++
	}
}

// drawKey picks a key per the configured distribution.
func (g *Generator) drawKey() string {
	if g.zipf != nil {
		return g.keys[g.zipf.Uint64()]
	}
	return g.keys[g.rng.Intn(len(g.keys))]
}

// launch hands op to the IssueFunc and tracks its completion.
func (g *Generator) launch(i int, op Op) {
	n := &g.nodes[i]
	n.inFlight++
	if n.inFlight > g.stats.PeakInFlight {
		g.stats.PeakInFlight = n.inFlight
	}
	g.stats.Issued++
	g.perNodeIssued[i]++
	if op.Write {
		g.stats.Writes++
	} else {
		g.stats.Reads++
	}
	g.issue(op, func(hit bool) {
		g.stats.Completed++
		if !op.Write && hit {
			g.stats.Hits++
		}
		n.inFlight--
		// A window slot opened: promote the oldest queued arrival.
		if n.queue.Len() > 0 {
			g.launch(i, n.queue.Pop())
		}
	})
}
