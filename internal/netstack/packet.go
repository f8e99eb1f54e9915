// Package netstack wires nodes together: it defines the network-layer
// packet model, per-node protocol demultiplexing over a MAC, message
// accounting that separates application traffic from routing overhead (as
// the paper's "number of messages" vs "additional routing overhead"), and
// neighbor discovery via the heartbeat mechanism of Section 2.3.
package netstack

import "probquorum/internal/phy"

// ProtocolID identifies the application or control protocol a packet
// belongs to, like an IP protocol number.
type ProtocolID int

// Well-known protocol ids.
const (
	// ProtoBeacon carries heartbeat beacons for neighbor discovery.
	ProtoBeacon ProtocolID = 1
	// ProtoAODV carries AODV control traffic (RREQ/RREP/RERR).
	ProtoAODV ProtocolID = 2
	// ProtoQuorum carries quorum access traffic (advertise/lookup/reply).
	ProtoQuorum ProtocolID = 3
)

// Broadcast addresses a packet to all one-hop neighbors.
const Broadcast = phy.Broadcast

// IPHeaderBytes is the network-layer header size added to every packet
// (paper Fig. 2: "512 bytes + IP + MAC + PHY headers").
const IPHeaderBytes = 20

// Packet is a network-layer datagram. A send copies it into the hop's
// envelope, so the sender may build it on its stack. What a Handler, an
// overhear tap or a fault hook is handed points into that envelope: one
// instance shared, read-only, by every receiver of the hop and valid for the
// upcall only. A forwarder edits and sends its own copy (fwd := *pkt); code
// that keeps a packet past the upcall — a jittered rebroadcast, a delayed
// delivery — takes a heap copy with Clone. All copies share Payload, and a
// payload is immutable once sent: a relay may re-send the one it received,
// and a forward that changes a field builds a new payload.
type Packet struct {
	// Proto selects the handler at the receiving node.
	Proto ProtocolID
	// Src is the originating node; Dst the final destination (or
	// Broadcast). These are end-to-end addresses; the MAC frame carries
	// the per-hop ones.
	Src, Dst int
	// TTL limits forwarding; a packet with TTL 0 is not forwarded further.
	TTL int
	// Bytes is the payload size in bytes, excluding IP/MAC/PHY headers.
	Bytes int
	// Hops counts MAC transmissions this packet (and its clones along a
	// path) has undergone.
	Hops int
	// Payload is the protocol-specific content.
	Payload any
}

// Clone returns a shallow heap copy, for keeping a packet past the upcall
// that delivered it.
func (p *Packet) Clone() *Packet {
	cp := *p
	return &cp
}
