package quorum

import "probquorum/internal/netstack"

// Sampling-based RANDOM access (Section 4.1): when no membership service is
// available, each quorum member is drawn directly as the endpoint of a
// maximum-degree random walk of about the mixing time (T_mix ≈ n/2 on
// G²(n,r), after RaWMS). The walk needs no routing; its per-sample cost is
// Θ(T_mix) messages, which is why the paper reports this variant as robust
// but expensive.

// sampleMsg carries one maximum-degree walk. The walk self-loops with the
// residual probability mass of the d_max slots, so the endpoint's
// distribution is uniform regardless of node degrees.
type sampleMsg struct {
	Op         opID
	Advertise  bool
	Key, Value string
	StepsLeft  int
	Visited    []int // reverse path for lookup replies
}

// maxDegreeEstimate is the d_max the maximum-degree walks assume: about 2.5×
// the paper's default density of 10.
const maxDegreeEstimate = 24

// accessBySampling launches |Q| independent maximum-degree walks; each
// endpoint becomes one quorum member. A walk is n/2 steps long, the paper's
// mixing-time estimate for G²(n,r), and never under 10.
func (s *System) accessBySampling(origin int, op opID, advertise bool, key, value string, q int) {
	steps := max(s.net.N()/2, 10)
	for i := 0; i < q; i++ {
		m := &sampleMsg{
			Op: op, Advertise: advertise, Key: key, Value: value,
			StepsLeft: steps,
			Visited:   []int{origin},
		}
		s.stepSample(s.net.Node(origin), m)
	}
}

// stepSample advances a walk at node n: self-loops are resolved locally
// (they cost no messages), moves send the message to the chosen neighbor.
func (s *System) stepSample(n *netstack.Node, m *sampleMsg) {
	rng := s.engine.Rand()
	for m.StepsLeft > 0 {
		nbs := s.net.Neighbors(n.ID())
		if len(nbs) == 0 {
			break // isolated: the walk ends here
		}
		slot := rng.Intn(maxDegreeEstimate)
		if slot >= len(nbs) {
			m.StepsLeft-- // self-loop
			continue
		}
		next := nbs[slot]
		fwd := &sampleMsg{
			Op: m.Op, Advertise: m.Advertise, Key: m.Key, Value: m.Value,
			StepsLeft: m.StepsLeft - 1,
			Visited:   append(append(make([]int, 0, len(m.Visited)+1), m.Visited...), next),
		}
		pkt := s.packet(n.ID(), next, fwd)
		n.SendOneHop(next, &pkt, func(ok bool) {
			if ok {
				return
			}
			if s.cfg.Salvation {
				// Retry the step from here with a fresh draw.
				s.counters.Salvations++
				retry := &sampleMsg{
					Op: m.Op, Advertise: m.Advertise, Key: m.Key, Value: m.Value,
					StepsLeft: m.StepsLeft, Visited: m.Visited,
				}
				s.stepSample(n, retry)
				return
			}
			s.counters.WalkDrops++
			if m.Advertise {
				s.advertiseSettled(m.Op) // the lost walk's member is forfeited
			}
		})
		return
	}
	s.sampleArrived(n, m)
}

// handleSample processes a walk message arriving at node n.
func (s *System) handleSample(n *netstack.Node, m *sampleMsg) {
	if m.StepsLeft <= 0 {
		s.sampleArrived(n, m)
		return
	}
	s.stepSample(n, m)
}

// sampleArrived runs the quorum operation at the walk's endpoint.
func (s *System) sampleArrived(n *netstack.Node, m *sampleMsg) {
	// The endpoint of a maximum-degree walk is one uniform sample —
	// exactly the birthday-paradox observation the size estimator wants.
	if s.members != nil {
		s.members.ObserveSample(m.Op.Origin, n.ID())
	}
	if m.Advertise {
		s.storeAt(n.ID(), m.Key, m.Value, true, m.Op)
		s.advertiseSettled(m.Op)
		return
	}
	value, ok := s.stores[n.ID()].Get(m.Key)
	if !ok {
		return // this member does not hold the key
	}
	s.markIntersected(m.Op)
	if s.lookups[m.Op] != nil {
		r := &replyMsg{Op: m.Op, Key: m.Key, Value: value, Path: m.Visited}
		s.forwardReply(n, r, len(m.Visited)-1)
	}
}
