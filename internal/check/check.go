// Package check arms a running simulation with invariant checkers — the
// oracle half of the chaos harness. It watches three layers:
//
//   - netstack delivery: no frame is handed to a dead node or across an
//     active partition, and at end of run the receive pipeline conserves
//     frames (arrivals = deliveries + every drop category + in-flight
//     delayed deliveries);
//   - quorum operations: every operation resolves exactly once (no
//     completion callback after an op finishes, none lost), and a lookup
//     Hit implies quorum intersection;
//   - register semantics: a read never returns a payload that was never
//     written (phantom read).
//
// Probabilistic degradation is deliberately *not* a violation: the paper's
// quorums intersect only with probability ≥ 1−ε (Lemma 5.2), and §2.5
// relaxes the register to return "some previously written value" when the
// quorums miss. Stale and missed reads are therefore tallied as metrics
// (StaleReads, MissedReads) for the chaos figures to plot against the
// bound, while the invariants above must hold even under faults — a chaos
// run with zero violations and measurable staleness is the expected
// outcome, not a contradiction.
package check

import (
	"fmt"

	"probquorum/internal/netstack"
	"probquorum/internal/quorum"
	"probquorum/internal/register"
	"probquorum/internal/sim"
)

// maxRecorded bounds stored violation details; further violations are
// counted but not kept.
const maxRecorded = 100

// Violation is one detected invariant breach.
type Violation struct {
	// Time is the simulation time of detection.
	Time float64
	// Invariant names the breached rule.
	Invariant string
	// Detail describes the breach.
	Detail string
}

// String renders the violation for logs and test failures.
func (v Violation) String() string {
	return fmt.Sprintf("t=%.3f %s: %s", v.Time, v.Invariant, v.Detail)
}

// Report is the outcome of a checked run.
type Report struct {
	// Violations counts every invariant breach.
	Violations int
	// Details holds the first breaches, up to a cap.
	Details []Violation

	// Lookups, Hits, and Intersections tally checked lookups.
	Lookups, Hits, Intersections int
	// Advertises tallies checked advertises.
	Advertises int
	// Reads, Writes tally checked register operations.
	Reads, Writes int
	// StaleReads counts reads returning a version older than the last
	// write completed before the read began — §2.5 degradation, a
	// metric, not a violation.
	StaleReads int
	// MissedReads counts reads that found no value at all.
	MissedReads int
	// Outstanding is the number of operations still unresolved when
	// Final was called; nonzero means the run was not drained.
	Outstanding int
	// LeakedLookups and LeakedAds count ops still in the quorum system's
	// pending maps past their settlement horizon when Final was called.
	// Ops inside their horizon (e.g. a re-advertise in flight) don't
	// count; a nonzero value is a leaked op-termination path (under
	// open-loop load, unbounded memory) and counts as a violation.
	LeakedLookups, LeakedAds int
}

// OK reports whether the run was violation-free.
func (r Report) OK() bool { return r.Violations == 0 }

// Add folds another run's report into r: every tally sums, the details
// concatenate. A tally added to Report is added here (the merge test fails on
// one left out).
func (r *Report) Add(o Report) {
	r.Violations += o.Violations
	r.Details = append(r.Details, o.Details...)
	r.Lookups += o.Lookups
	r.Hits += o.Hits
	r.Intersections += o.Intersections
	r.Advertises += o.Advertises
	r.Reads += o.Reads
	r.Writes += o.Writes
	r.StaleReads += o.StaleReads
	r.MissedReads += o.MissedReads
	r.Outstanding += o.Outstanding
	r.LeakedLookups += o.LeakedLookups
	r.LeakedAds += o.LeakedAds
}

// Suite arms the checkers on one network + quorum system. Construct with
// NewSuite; route operations through Suite.Lookup / Suite.Advertise and
// wrap registers with WrapRegister so the op-level invariants see them.
type Suite struct {
	net    *netstack.Network
	sys    *quorum.System
	engine *sim.Engine

	partitioned func(a, b int) bool

	violations int
	details    []Violation

	lookups, hits, intersections int
	advertises                   int
	outstanding                  int

	reads, writes, stale, missed int
}

// NewSuite builds a suite and installs the delivery observer on net. One
// suite per network.
func NewSuite(net *netstack.Network, sys *quorum.System) *Suite {
	s := &Suite{net: net, sys: sys, engine: net.Engine()}
	net.SetDeliveryObserver(s.observeDelivery)
	return s
}

// SetPartitionOracle tells the suite how to decide whether two nodes are
// currently partitioned (typically faults.Injector.Partitioned). Without
// an oracle the cross-partition invariant is not checked.
func (s *Suite) SetPartitionOracle(f func(a, b int) bool) { s.partitioned = f }

// violate records one breach.
func (s *Suite) violate(invariant, format string, args ...any) {
	s.violations++
	if len(s.details) < maxRecorded {
		s.details = append(s.details, Violation{
			Time:      s.engine.Now(),
			Invariant: invariant,
			Detail:    fmt.Sprintf(format, args...),
		})
	}
}

// observeDelivery checks every frame the netstack hands to a node.
func (s *Suite) observeDelivery(from, to int, pkt *netstack.Packet) {
	if !s.net.Alive(to) {
		s.violate("delivery-to-dead", "frame %d→%d proto %d delivered to dead node", from, to, pkt.Proto) //pqlint:allow noalloc(cold path: a breach formats its report; the suite records at most maxRecorded of them)
	}
	if s.partitioned != nil && s.partitioned(from, to) {
		s.violate("cross-partition-delivery", "frame %d→%d proto %d crossed an active partition", from, to, pkt.Proto) //pqlint:allow noalloc(cold path: a breach formats its report; the suite records at most maxRecorded of them)
	}
}

// Lookup issues a checked lookup: the completion callback must fire exactly
// once, and a Hit must imply Intersected.
func (s *Suite) Lookup(origin int, key string, done func(quorum.LookupResult)) quorum.OpRef {
	s.outstanding++
	s.lookups++
	fired := false
	return s.sys.Lookup(origin, key, func(res quorum.LookupResult) {
		if fired {
			s.violate("double-resolution", "lookup from %d for %q resolved twice", origin, key)
			return
		}
		fired = true
		s.outstanding--
		if res.Hit && !res.Intersected {
			s.violate("hit-without-intersection", "lookup from %d for %q hit without quorum intersection", origin, key)
		}
		if res.Hit {
			s.hits++
		}
		if res.Intersected {
			s.intersections++
		}
		if done != nil {
			done(res)
		}
	})
}

// Advertise issues a checked advertise: the completion callback must fire
// exactly once, and the placement count must be sane.
func (s *Suite) Advertise(origin int, key, value string, done func(quorum.AdvertiseResult)) quorum.OpRef {
	s.outstanding++
	s.advertises++
	fired := false
	return s.sys.Advertise(origin, key, value, func(res quorum.AdvertiseResult) {
		if fired {
			s.violate("double-resolution", "advertise from %d for %q resolved twice", origin, key)
			return
		}
		fired = true
		s.outstanding--
		if res.Placed < 0 || (res.Requested > 0 && res.Placed > s.net.N()) {
			s.violate("advertise-accounting", "advertise from %d placed %d of %d requested", origin, res.Placed, res.Requested)
		}
		if done != nil {
			done(res)
		}
	})
}

// WatchController arms the resize-bounds invariant on an adaptation
// controller: every size pair it applies must stay inside [1, n] — a
// controller that derives a zero, negative, or larger-than-network quorum
// has a broken clamp, no matter how plausible its estimate was.
func (s *Suite) WatchController(ctl *quorum.Controller) {
	ctl.OnResize(func(advertiseSize, lookupSize int) {
		if advertiseSize < 1 || lookupSize < 1 || advertiseSize > s.net.N() || lookupSize > s.net.N() {
			s.violate("resize-bounds", "controller applied |Qa|=%d |Qℓ|=%d outside [1, %d]",
				advertiseSize, lookupSize, s.net.N())
		}
	})
}

// conservationViolation checks that the netstack receive pipeline accounted
// for every arriving frame, returning the breach if not.
func (s *Suite) conservationViolation() *Violation {
	st := s.net.Stats()
	arrivals := st.Get(netstack.CtrRxArrivals)
	accounted := st.Get(netstack.CtrRxDelivered) +
		st.Get(netstack.CtrLossDrops) +
		st.Get(netstack.CtrPartitionDrops) +
		st.Get(netstack.CtrFaultDrops) +
		int64(s.net.PendingFaultDeliveries())
	if arrivals == accounted {
		return nil
	}
	return &Violation{
		Time:      s.engine.Now(),
		Invariant: "frame-conservation",
		Detail: fmt.Sprintf(
			"rxarrivals %d != delivered %d + lossdrops %d + partitiondrops %d + faultdrops %d + pending %d",
			arrivals, st.Get(netstack.CtrRxDelivered), st.Get(netstack.CtrLossDrops),
			st.Get(netstack.CtrPartitionDrops), st.Get(netstack.CtrFaultDrops),
			s.net.PendingFaultDeliveries()),
	}
}

// Final snapshots the report, folding in the end-of-run checks (frame
// conservation, op drain). It does not mutate the suite, so it may be
// called repeatedly — mid-run for progress, and once more after the run
// has been drained past every outstanding operation's timeout for the
// authoritative verdict.
func (s *Suite) Final() Report {
	violations := s.violations
	details := s.details
	if v := s.conservationViolation(); v != nil {
		violations++
		details = append(details[:len(details):len(details)], *v)
	}
	if s.outstanding > 0 {
		violations++
		details = append(details[:len(details):len(details)], Violation{
			Time:      s.engine.Now(),
			Invariant: "op-never-resolved",
			Detail:    fmt.Sprintf("%d operations never resolved", s.outstanding),
		})
	}
	// Pending-map drain: any op still registered past its settlement
	// horizon (the lookup retry ladder, the advertise deadline) has a
	// broken termination path. It catches leaks the callback-based check
	// cannot: ops tracked outside the suite (e.g. the workload engine's)
	// whose s.lookups/s.ads entries survive their own termination path.
	// Ops inside their horizon don't count — periodic re-advertising
	// legitimately keeps some in flight at any instant.
	leakedLk, leakedAds := s.sys.LeakedOps()
	if leakedLk+leakedAds > 0 {
		violations++
		details = append(details[:len(details):len(details)], Violation{
			Time:      s.engine.Now(),
			Invariant: "pending-op-leak",
			Detail: fmt.Sprintf("%d lookups and %d advertises still pending past their timeout horizon",
				leakedLk, leakedAds),
		})
	}
	return Report{
		Violations:    violations,
		Details:       details,
		Lookups:       s.lookups,
		Hits:          s.hits,
		Intersections: s.intersections,
		Advertises:    s.advertises,
		Reads:         s.reads,
		Writes:        s.writes,
		StaleReads:    s.stale,
		MissedReads:   s.missed,
		Outstanding:   s.outstanding,
		LeakedLookups: leakedLk,
		LeakedAds:     leakedAds,
	}
}

// CheckedRegister wraps a register with phantom-read detection and
// staleness accounting. Obtain one via WrapRegister.
type CheckedRegister struct {
	suite *Suite
	reg   *register.Register

	issued       map[string]bool // every payload ever passed to Write
	maxCompleted uint64          // highest version whose Write completed
}

// WrapRegister arms the register checks on reg.
func (s *Suite) WrapRegister(reg *register.Register) *CheckedRegister {
	return &CheckedRegister{suite: s, reg: reg, issued: make(map[string]bool)}
}

// Write stores data through the underlying register, recording the payload
// so later reads can be vetted against the issued set.
func (c *CheckedRegister) Write(at int, data string, done func(v register.Versioned, placed int)) {
	c.suite.outstanding++
	c.suite.writes++
	// Record at issue time: replicas store the value before the writer's
	// completion fires, so a concurrent read may legitimately return it.
	c.issued[data] = true
	fired := false
	c.reg.Write(at, data, func(v register.Versioned, placed int) {
		if fired {
			c.suite.violate("double-resolution", "register write %q resolved twice", data)
			return
		}
		fired = true
		c.suite.outstanding--
		if v.Version > c.maxCompleted {
			c.maxCompleted = v.Version
		}
		if done != nil {
			done(v, placed)
		}
	})
}

// Read reads through the underlying register. A returned payload that was
// never issued is a phantom read (hard violation); a version older than the
// staleness floor — the highest version completely written before the read
// began — is counted as a stale read (metric); an empty result is a missed
// read (metric).
func (c *CheckedRegister) Read(at int, done func(register.ReadResult)) {
	c.suite.outstanding++
	c.suite.reads++
	floor := c.maxCompleted
	fired := false
	c.reg.Read(at, func(res register.ReadResult) {
		if fired {
			c.suite.violate("double-resolution", "register read at %d resolved twice", at)
			return
		}
		fired = true
		c.suite.outstanding--
		switch {
		case !res.OK:
			c.suite.missed++
		default:
			if !c.issued[res.Value] {
				c.suite.violate("phantom-read", "read at %d returned %q, never written", at, res.Value)
			}
			if res.Version < floor {
				c.suite.stale++
			}
		}
		if done != nil {
			done(res)
		}
	})
}
