package netstack

import (
	"fmt"

	"probquorum/internal/mac"
	"probquorum/internal/phy"
)

// Handler processes packets delivered to a node for a registered protocol.
type Handler interface {
	// HandlePacket is invoked with the receiving node, the packet, and
	// the previous-hop node id. pkt is read-only and valid for the upcall
	// only (see Packet): Clone it to keep it past the return.
	HandlePacket(n *Node, pkt *Packet, from int)
}

// OverhearFunc observes packets captured in promiscuous mode, under the
// same ownership rule as Handler.HandlePacket.
type OverhearFunc func(n *Node, pkt *Packet, from int)

// Node is one station's network layer: it demultiplexes packets to protocol
// handlers, provides one-hop unicast with delivery feedback (the MAC-level
// notification of Section 6.2) and one-hop broadcast, and counts messages.
type Node struct {
	net      *Network
	id       int
	mac      mac.MAC
	protos   map[ProtocolID]Handler
	overhear []OverhearFunc
}

// sendEnv is the pooled envelope one outgoing packet travels in: the MAC
// frame, whose Payload points back at the envelope, this hop's own copy of
// the packet, and what the sender needs when the MAC reports the frame's
// fate — the caller's completion callback (may be nil) and the hand-off time
// for the LatHop accumulator. A send costs nothing beyond the pool pop, and
// every reader of the hop (a retransmission, an overhearing neighbor) sees
// the TTL/Hops this hop sent, whatever a receiver has forwarded since
// (DESIGN.md §9).
type sendEnv struct {
	frame phy.Frame
	pkt   Packet
	done  func(ok bool)
	sent  float64
}

func newNode(net *Network, id int, m mac.MAC) *Node {
	n := &Node{
		net:    net,
		id:     id,
		mac:    m,
		protos: make(map[ProtocolID]Handler),
	}
	m.SetHandler(n)
	return n
}

// ID returns the node id.
func (n *Node) ID() int { return n.id }

// Alive reports whether the node is currently up.
func (n *Node) Alive() bool { return n.net.Alive(n.id) }

// Register binds a protocol handler. Registering the same protocol twice is
// a wiring bug and panics.
func (n *Node) Register(proto ProtocolID, h Handler) {
	if _, dup := n.protos[proto]; dup {
		panic(fmt.Sprintf("netstack: node %d: protocol %d registered twice", n.id, proto))
	}
	n.protos[proto] = h
}

// AddOverhearTap registers a promiscuous-mode observer and enables
// promiscuous reception on the MAC.
func (n *Node) AddOverhearTap(f OverhearFunc) {
	n.overhear = append(n.overhear, f)
	n.mac.SetPromiscuous(true)
}

// SendOneHop transmits a copy of *pkt to the direct neighbor next; the
// caller keeps pkt, which may live on its stack. done (may be nil) reports
// link-layer success: true once the MAC ACK arrives, false after the MAC
// exhausts its retransmissions. This is the cross-layer failure notification
// used for RW salvation and reply-path repair.
//
//pqlint:noalloc
func (n *Node) SendOneHop(next int, pkt *Packet, done func(ok bool)) {
	if !n.Alive() {
		if done != nil {
			done(false) //pqlint:allow noalloc(cold path: a dead sender's refusal runs the caller's failure handling)
		}
		return
	}
	env := n.net.allocEnv(next, pkt)
	env.done, env.sent = done, n.net.engine.Now()
	n.net.countSend(pkt)
	n.mac.Send(&env.frame)
}

// BroadcastOneHop transmits a copy of *pkt to all direct neighbors; the
// caller keeps pkt and may reuse it as soon as the call returns.
//
//pqlint:noalloc
func (n *Node) BroadcastOneHop(pkt *Packet) {
	if !n.Alive() {
		return
	}
	env := n.net.allocEnv(Broadcast, pkt)
	n.net.countSend(pkt)
	n.mac.Send(&env.frame)
}

// MACReceive implements mac.Handler.
func (n *Node) MACReceive(f *phy.Frame) { n.receive(f, false) }

// MACOverhear implements mac.Handler.
func (n *Node) MACOverhear(f *phy.Frame) { n.receive(f, true) }

// receive hands the hop's packet up: the envelope's own copy, which the
// sender recycles after this upcall.
func (n *Node) receive(f *phy.Frame, overhear bool) {
	if env, ok := f.Payload.(*sendEnv); ok && n.Alive() {
		n.net.deliverRx(n, f.Src, &env.pkt, overhear)
	}
}

// MACSendDone implements mac.Handler. The completion upcall is the MAC's
// last touch of the frame, so the envelope is recycled here; every frame a
// node sends was drawn from the network's pool in SendOneHop or
// BroadcastOneHop.
func (n *Node) MACSendDone(f *phy.Frame, ok bool) {
	env, ours := f.Payload.(*sendEnv)
	if !ours {
		return
	}
	if f.Dst != Broadcast {
		n.net.stats.Observe(LatHop, n.net.engine.Now()-env.sent)
	}
	if env.done != nil {
		env.done(ok) //pqlint:allow noalloc(the hop ends here and the sender's completion handler takes over: the hop is pinned by TestSendOneHopAllocFree, what handlers do per hop by TestWalkHopAllocsBounded, TestReplyHopAllocsBounded and TestForwardedHopAllocFree)
	}
	n.net.freeEnv(env)
}

var _ mac.Handler = (*Node)(nil)
