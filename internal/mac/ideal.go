package mac

import (
	"math/rand"
	"sort"

	"probquorum/internal/geom"
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
	engine  *sim.Engine
	src     phy.PositionSource
	r       float64
	rng     *rand.Rand
	macs    []*IdealMAC
	enabled []bool
	// listeners holds the ids of the promiscuous MACs in ascending order,
	// maintained by SetPromiscuous, so a unicast delivery visits only the
	// nodes that could overhear it — none at all in most runs — instead
	// of scanning all n.
	listeners []int
	// flightFree recycles the per-send delivery callbacks: Send pops one
	// and fire pushes it back, so steady-state sending does not allocate
	// a closure per frame (DESIGN.md §9).
	flightFree []*flight
	// lanes hold the unicast flights in the air, one engine lane per air
	// time, at most maxLanes of them (flightLane).
	lanes []*sim.Lane

	// LossProb is an optional per-frame independent loss probability for
	// unicast data frames (after which MAC retries are modelled: a frame
	// is lost only if all retryLimit attempts fail) and a single-shot
	// loss for broadcast receptions.
	LossProb float64
}

// NewIdealNet creates the shared layer for n nodes with transmission range r.
// It reads positions from src, as the SINR medium does.
func NewIdealNet(engine *sim.Engine, n int, r float64, src phy.PositionSource, rng *rand.Rand) *IdealNet {
	in := &IdealNet{
		engine:  engine,
		src:     src,
		r:       r,
		rng:     rng,
		macs:    make([]*IdealMAC, n),
		enabled: make([]bool, n),
	}
	for i := range in.macs {
		in.macs[i] = &IdealMAC{net: in, id: i}
		in.enabled[i] = true
	}
	return in
}

// pos is node id's position now.
func (in *IdealNet) pos(id int) geom.Point { return in.src.Position(id, in.engine.Now()) }

// MAC returns node id's link layer.
func (in *IdealNet) MAC(id int) *IdealMAC { return in.macs[id] }

// SetEnabled includes or excludes a node (churn).
func (in *IdealNet) SetEnabled(id int, on bool) { in.enabled[id] = on }

// Enabled reports node participation.
func (in *IdealNet) Enabled(id int) bool { return in.enabled[id] }

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
	in := m.net
	i := sort.SearchInts(in.listeners, m.id)
	if on {
		in.listeners = append(in.listeners, 0)
		copy(in.listeners[i+1:], in.listeners[i:])
		in.listeners[i] = m.id
	} else {
		in.listeners = append(in.listeners[:i], in.listeners[i+1:]...)
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
	fn := in.newFlight(m, f).fn
	if f.Dst != phy.Broadcast {
		if l := in.flightLane(air); l != nil {
			l.Schedule(fn)
			return
		}
	}
	in.engine.Schedule(air, fn)
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

//pqlint:noalloc
func (in *IdealNet) newFlight(m *IdealMAC, f *phy.Frame) *flight {
	var fl *flight
	if n := len(in.flightFree); n > 0 {
		fl = in.flightFree[n-1]
		in.flightFree[n-1] = nil
		in.flightFree = in.flightFree[:n-1]
	} else {
		fl = &flight{net: in} //pqlint:allow noalloc(pool-dry cold path: one flight per in-flight-frame high-water increase)
		fl.fn = fl.fire       //pqlint:allow noalloc(bound once per pooled flight, on the same cold path)
	}
	fl.mac, fl.f = m, f
	return fl
}

// fire recycles the flight before delivering, so deliveries that trigger
// further sends can reuse it immediately.
func (fl *flight) fire() {
	m, f := fl.mac, fl.f
	fl.mac, fl.f = nil, nil
	fl.net.flightFree = append(fl.net.flightFree, fl)
	m.deliver(f)
}

// deliver completes one frame. A unicast touches the destination and the
// promiscuous listeners only, so a hop costs the same at any n.
func (m *IdealMAC) deliver(f *phy.Frame) {
	in := m.net
	m.pending--
	if !in.enabled[m.id] {
		m.done(f, false)
		return
	}
	src := in.pos(m.id)
	if f.Dst == phy.Broadcast {
		for id, mac := range in.macs {
			if id == m.id || !in.enabled[id] {
				continue
			}
			if geom.Dist(src, in.pos(id)) <= in.r && !in.lost(1) {
				if mac.handler != nil {
					mac.handler.MACReceive(f)
				}
			}
		}
		m.done(f, true)
		return
	}
	dst := f.Dst
	ok := in.enabled[dst] && geom.Dist(src, in.pos(dst)) <= in.r && !in.lost(retryLimit)
	if ok {
		if h := in.macs[dst].handler; h != nil {
			h.MACReceive(f)
		}
		for _, id := range in.listeners {
			if id == m.id || id == dst || !in.enabled[id] {
				continue
			}
			if mac := in.macs[id]; geom.Dist(src, in.pos(id)) <= in.r && mac.handler != nil {
				mac.handler.MACOverhear(f)
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
