// Package churn drives continuous node failure and join processes over a
// netstack.Network — the dynamic environment of Section 6.1.
//
// The paper's simulation study injects churn as a single event between the
// advertise and lookup phases (Section 8.7); its analysis, however, is a
// *process* model: nodes crash and fresh nodes join over time, and the
// intersection probability decays as ε^(1−f(t)) with the churned fraction
// f(t). Timed Quorum Systems (Gramoli & Raynal) makes the same point from
// the other side: quorum guarantees in dynamic systems hold only for a
// bounded time and must be re-established by periodic refresh. This package
// supplies the process: Poisson-timed failures and joins at configurable
// rates, plus deterministic schedules for tests and reproducible bursts.
//
// Joins prefer a caller-supplied pool of fresh (never-lived) node slots, so
// a joining node carries no prior state; once the fresh pool is exhausted,
// crashed nodes are rebooted instead. In both cases an OnJoin hook lets the
// layers above reset volatile state (stores, membership views) — a rebooted
// node lost its memory, exactly why refresh (re-advertising) is needed.
package churn

import (
	"math/rand"

	"probquorum/internal/netstack"
	"probquorum/internal/sim"
)

// Op is one kind of churn action.
type Op int

// Churn actions.
const (
	// Fail crashes one currently live node, chosen uniformly at random.
	Fail Op = iota + 1
	// Join brings one node up: a fresh slot if any remain, otherwise a
	// reboot of a previously crashed node.
	Join
)

// Event is one deterministic churn action, relative to Start time. Count
// nodes are affected at once (a burst).
type Event struct {
	At    float64
	Op    Op
	Count int
}

// Config parameterizes a churn process.
type Config struct {
	// FailRate and JoinRate are Poisson intensities in nodes per second.
	// Zero disables the respective process.
	FailRate, JoinRate float64
	// Schedule lists deterministic events (fired in addition to the
	// Poisson streams), with times relative to Start. Used by tests and
	// by reproducible burst scenarios.
	Schedule []Event
}

// minAlive is the live-population floor below which failures are skipped,
// keeping the simulation meaningful.
const minAlive = 2

// Stats counts what the process has done so far.
type Stats struct {
	// Fails and Joins count nodes actually crashed / brought up.
	Fails, Joins int
	// SkippedFails counts failure events suppressed by the minAlive
	// floor; SkippedJoins counts join events with no node left to start.
	SkippedFails, SkippedJoins int
}

// Process is one churn process bound to a network. Construct with New,
// configure pools and hooks, then Start. All randomness flows from a stream
// of the network's engine, so runs remain deterministic.
type Process struct {
	engine *sim.Engine
	net    *netstack.Network
	cfg    Config
	rng    *rand.Rand

	fresh   []int // never-lived slots, consumed in order
	crashed []int // nodes this process failed, eligible for reboot

	onFail, onJoin []func(id int)

	running bool
	stats   Stats
}

// New builds a process over net. It does nothing until Start.
func New(net *netstack.Network, cfg Config) *Process {
	return &Process{
		engine: net.Engine(),
		net:    net,
		cfg:    cfg,
		rng:    net.Engine().NewStream(),
	}
}

// SetFreshPool supplies never-lived node ids (pre-allocated in the network,
// currently failed) that Join events bring up before rebooting crashed
// nodes. The slice is owned by the process afterwards.
func (p *Process) SetFreshPool(ids []int) { p.fresh = ids }

// OnFail appends a hook invoked after each crash with the failed id. Hooks
// run in registration order; several layers may observe the same process
// (e.g. a node-state reset and an adaptation controller's churn meter).
func (p *Process) OnFail(fn func(id int)) { p.onFail = append(p.onFail, fn) }

// OnJoin appends a hook invoked after each join with the started id. Use it
// to reset the node's volatile state: a fresh node has none, and a rebooted
// node lost its. Hooks run in registration order.
func (p *Process) OnJoin(fn func(id int)) { p.onJoin = append(p.onJoin, fn) }

// Stats returns the action counts so far.
func (p *Process) Stats() Stats { return p.stats }

// Start launches the Poisson streams and the deterministic schedule.
// Starting an already-running process is a no-op.
func (p *Process) Start() {
	if p.running {
		return
	}
	p.running = true
	if p.cfg.FailRate > 0 {
		p.scheduleNext(Fail, p.cfg.FailRate)
	}
	if p.cfg.JoinRate > 0 {
		p.scheduleNext(Join, p.cfg.JoinRate)
	}
	for _, ev := range p.cfg.Schedule {
		ev := ev
		p.engine.Schedule(ev.At, func() {
			if !p.running {
				return
			}
			for i := 0; i < ev.Count; i++ {
				p.apply(ev.Op)
			}
		})
	}
}

// Stop halts the process: pending events become no-ops. The process can be
// Started again later (fresh Poisson streams).
func (p *Process) Stop() { p.running = false }

// scheduleNext arms the next Poisson arrival for op at the given rate.
func (p *Process) scheduleNext(op Op, rate float64) {
	delay := p.rng.ExpFloat64() / rate
	p.engine.Schedule(delay, func() {
		if !p.running {
			return
		}
		p.apply(op)
		p.scheduleNext(op, rate)
	})
}

// apply executes one churn action.
func (p *Process) apply(op Op) {
	switch op {
	case Fail:
		p.failOne()
	case Join:
		p.joinOne()
	}
}

func (p *Process) failOne() {
	if p.net.NumAlive() <= minAlive {
		p.stats.SkippedFails++
		return
	}
	id := p.net.RandomAliveID(p.rng)
	p.net.Fail(id)
	p.crashed = append(p.crashed, id)
	p.stats.Fails++
	for _, fn := range p.onFail {
		fn(id)
	}
}

func (p *Process) joinOne() {
	var id int
	switch {
	case len(p.fresh) > 0:
		id = p.fresh[0]
		p.fresh = p.fresh[1:]
	case len(p.crashed) > 0:
		// Reboot a uniformly random crashed node, not the most recent.
		i := p.rng.Intn(len(p.crashed))
		id = p.crashed[i]
		p.crashed[i] = p.crashed[len(p.crashed)-1]
		p.crashed = p.crashed[:len(p.crashed)-1]
	default:
		p.stats.SkippedJoins++
		return
	}
	p.net.Revive(id)
	p.stats.Joins++
	for _, fn := range p.onJoin {
		fn(id)
	}
}
