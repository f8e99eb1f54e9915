package mac

import (
	"math/rand"

	"probquorum/internal/phy"
	"probquorum/internal/sim"
)

// IdealNet is a contention-free unit-disk link layer shared by all nodes.
// Unicast frames to a node in range are delivered after the frame's air
// time; frames to out-of-range or disabled nodes fail after the same delay
// (modelling the MAC retry sequence collapsing to a single notification).
// Broadcast frames reach every enabled node in range.
//
// It preserves the link-layer behaviours the quorum protocols depend on —
// range-limited delivery, send-failure upcalls, optional random loss — while
// eliding contention, so large parameter sweeps run quickly. Tests and
// experiments can swap it for the DCF MAC over a SINR medium to validate
// fidelity.
type IdealNet struct {
	engine    *sim.Engine
	neighbors func(id int) []int // the medium (NewIdealNet)
	linked    func(a, b int) bool
	rng       *rand.Rand
	macs      []*IdealMAC
	enabled   []bool
	// listening counts the promiscuous MACs, maintained by SetPromiscuous,
	// so a unicast delivery reads the sender's list for overhearers only
	// when some node listens — none does in most runs.
	listening int
	near      []int // a frame's receivers, copied before an upcall can rebuild them
	// flights recycles the per-send delivery callbacks: Send takes one
	// and fire puts it back, so steady-state sending does not allocate
	// a closure per frame (DESIGN.md §9).
	flights sim.Pool[*flight]
	// lanes hold the unicast flights in the air, one engine lane per air
	// time, at most maxLanes of them (flightLane).
	lanes []*sim.Lane

	// LossProb is an optional per-frame independent loss probability for
	// unicast data frames (after which MAC retries are modelled: a frame
	// is lost only if all retryLimit attempts fail) and a single-shot
	// loss for broadcast receptions.
	LossProb float64
}

// NewIdealNet creates the shared layer for n nodes over a medium of one rule
// (netstack's geometric provider): neighbors(id) is the other ids within
// range of id now, ascending, in a slice the function may rebuild at its next
// call, and linked(a, b) whether b is in a's list, without building it.
func NewIdealNet(engine *sim.Engine, n int, neighbors func(id int) []int, linked func(a, b int) bool, rng *rand.Rand) *IdealNet {
	in := &IdealNet{
		engine:    engine,
		neighbors: neighbors,
		linked:    linked,
		rng:       rng,
		macs:      make([]*IdealMAC, n),
		enabled:   make([]bool, n),
	}
	in.flights.New = in.newFlight
	for i := range in.macs {
		in.macs[i] = &IdealMAC{net: in, id: i}
		in.enabled[i] = true
	}
	return in
}

// MAC returns node id's link layer.
func (in *IdealNet) MAC(id int) *IdealMAC { return in.macs[id] }

// SetEnabled includes or excludes a node (churn).
func (in *IdealNet) SetEnabled(id int, on bool) { in.enabled[id] = on }

// IdealMAC is one node's attachment to an IdealNet.
type IdealMAC struct {
	net         *IdealNet
	id          int
	handler     Handler
	promiscuous bool
	pending     int
	seq         uint32
}

var _ MAC = (*IdealMAC)(nil)

// SetHandler implements MAC.
func (m *IdealMAC) SetHandler(h Handler) { m.handler = h }

// SetPromiscuous implements MAC. Overhearing on the ideal layer delivers
// unicast frames to all other enabled nodes in range of the sender.
func (m *IdealMAC) SetPromiscuous(on bool) {
	if m.promiscuous == on {
		return
	}
	m.promiscuous = on
	if on {
		m.net.listening++
	} else {
		m.net.listening--
	}
}

// QueueLen implements MAC.
func (m *IdealMAC) QueueLen() int { return m.pending }

// Send implements MAC.
//
//pqlint:noalloc
func (m *IdealMAC) Send(f *phy.Frame) {
	in := m.net
	f.Src = m.id
	f.Kind = phy.FrameData
	m.seq++
	f.Seq = m.seq
	f.Bytes += headerBytes
	if f.Dst == phy.Broadcast {
		f.Rate = broadcastRate
	} else {
		f.Rate = unicastRate
	}
	air := f.AirTime() + difs
	m.pending++
	fl := in.flights.Get()
	fl.mac, fl.f = m, f
	if f.Dst != phy.Broadcast {
		if l := in.flightLane(air); l != nil {
			l.Schedule(fl.fn)
			return
		}
	}
	in.engine.Schedule(air, fl.fn)
}

// maxLanes caps the engine lanes a net makes, because the engine scans
// every lane at each step. A run's unicast frames come in a handful of
// sizes (quorum messages, routed envelopes, AODV replies), but nothing
// bounds how many; flights of an air time past the cap use the heap.
const maxLanes = 4

// flightLane returns the lane of unicast flights of air seconds, making it
// while the net has fewer than maxLanes, and nil when all are taken by
// other air times: such a flight goes through the engine's heap. A lane
// fires its flight when Engine.Schedule(air, …) would, so which way a
// flight goes changes nothing simulated.
//
//pqlint:noalloc
func (in *IdealNet) flightLane(air float64) *sim.Lane {
	for _, l := range in.lanes {
		if l.Delay() == air {
			return l
		}
	}
	if len(in.lanes) == maxLanes {
		return nil
	}
	l := in.engine.NewLane(air)    //pqlint:allow noalloc(cold path: at most maxLanes lanes per net)
	in.lanes = append(in.lanes, l) //pqlint:allow noalloc(cold path: at most maxLanes lanes per net)
	return l
}

// flight is one frame in the air: a pooled (mac, frame) pair whose fn —
// built once per pooled object — delivers the frame, replacing the
// per-send `func() { m.deliver(f) }` closure.
type flight struct {
	net *IdealNet
	mac *IdealMAC
	f   *phy.Frame
	fn  func()
}

// newFlight is the flight pool's New: a flight with its fn bound.
func (in *IdealNet) newFlight() *flight {
	fl := &flight{net: in}
	fl.fn = fl.fire
	return fl
}

// fire recycles the flight before delivering, so deliveries that trigger
// further sends can reuse it immediately.
func (fl *flight) fire() {
	m, f := fl.mac, fl.f
	fl.mac, fl.f = nil, nil
	fl.net.flights.Put(fl)
	m.deliver(f)
}

// deliver completes one frame to the enabled members of the sender's list,
// in ascending id: all of them for a broadcast; for a unicast, the
// destination and the listening ones. A unicast asks linked of its
// destination, not the list: a pair of positions is cheaper to read than a
// list once per hop. Overhearers are the listening members of the list, read
// only when some node listens, so a hop costs O(degree) however many do.
func (m *IdealMAC) deliver(f *phy.Frame) {
	in := m.net
	m.pending--
	if !in.enabled[m.id] {
		m.done(f, false)
		return
	}
	if f.Dst == phy.Broadcast {
		in.near = append(in.near[:0], in.neighbors(m.id)...)
		for _, id := range in.near {
			if in.enabled[id] && !in.lost(1) {
				if h := in.macs[id].handler; h != nil {
					h.MACReceive(f)
				}
			}
		}
		m.done(f, true)
		return
	}
	dst := f.Dst
	ok := in.enabled[dst] && in.linked(m.id, dst) && !in.lost(retryLimit)
	if ok {
		if h := in.macs[dst].handler; h != nil {
			h.MACReceive(f)
		}
		if in.listening > 0 {
			in.near = append(in.near[:0], in.neighbors(m.id)...)
			for _, id := range in.near {
				if mac := in.macs[id]; id != dst && mac.promiscuous && in.enabled[id] && mac.handler != nil {
					mac.handler.MACOverhear(f)
				}
			}
		}
	}
	m.done(f, ok)
}

// lost samples the loss model: a frame is lost only if `attempts`
// independent tries all fail.
func (in *IdealNet) lost(attempts int) bool {
	if in.LossProb <= 0 {
		return false
	}
	for i := 0; i < attempts; i++ {
		if in.rng.Float64() >= in.LossProb {
			return false
		}
	}
	return true
}

func (m *IdealMAC) done(f *phy.Frame, ok bool) {
	if m.handler != nil {
		m.handler.MACSendDone(f, ok)
	}
}
