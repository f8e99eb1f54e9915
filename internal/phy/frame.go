package phy

// Broadcast is the frame destination that addresses all nodes in range.
const Broadcast = -1

// FrameKind distinguishes MAC frame types for timing and accounting.
type FrameKind int

// Frame kinds.
const (
	FrameData FrameKind = iota + 1
	FrameAck
)

// Frame is a link-layer frame on the air. The physical layer treats the
// payload as opaque; only sizes and addresses matter for propagation.
type Frame struct {
	// Src is the transmitting node id.
	Src int
	// Dst is the destination node id, or Broadcast.
	Dst int
	// Kind is the MAC frame type.
	Kind FrameKind
	// Seq is the MAC-level sequence number (for duplicate detection of
	// retransmissions).
	Seq uint32
	// Bytes is the on-air frame size in bytes including all MAC/PHY
	// headers (PLCP preamble time is added separately).
	Bytes int
	// Rate is the modulation rate in bits/s.
	Rate float64
	// Payload is the network-layer packet carried by the frame.
	Payload any
}

// plcpPreambleSecs is the PHY preamble + PLCP header duration added to every
// frame: the 802.11 DSSS long preamble, 144 µs + 48 µs at 1 Mb/s
// (IEEE 802.11-2007 §15.2.2), which is what the paper's SWANS/ns-2 radios use.
const plcpPreambleSecs = 192e-6

// AirTime returns the time the frame occupies the channel: the PLCP preamble
// plus its bytes at its rate.
func (f *Frame) AirTime() float64 {
	return plcpPreambleSecs + float64(f.Bytes*8)/f.Rate
}

// Handler receives indications from a node's channel attachment.
type Handler interface {
	// ChannelStateChanged signals carrier-sense transitions: busy=true
	// when the sensed power rises to or above the carrier-sense
	// threshold, busy=false when it falls below.
	ChannelStateChanged(busy bool)
	// FrameReceived delivers a successfully decoded frame (addressed to
	// this node, broadcast, or overheard — filtering is the MAC's job).
	FrameReceived(f *Frame)
}

// Channel is a node's attachment to a shared medium.
type Channel interface {
	// Transmit starts sending f now. The caller must respect its own
	// carrier sensing; the medium does not queue.
	Transmit(f *Frame)
	// Busy reports whether carrier is currently sensed busy.
	Busy() bool
	// SetHandler registers the MAC above this channel.
	SetHandler(h Handler)
	// TxDuration returns the air time of f on this medium.
	TxDuration(f *Frame) float64
}
