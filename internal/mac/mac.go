// Package mac provides link layers for the simulator:
//
//   - DCF: an 802.11-flavoured CSMA/CA MAC (DIFS/SIFS, slotted exponential
//     backoff, unicast DATA/ACK with up to 7 retransmissions, broadcast
//     without acknowledgment) running over a phy.Medium. Its send-failure
//     upcall is the cross-layer notification the paper relies on for random
//     walk salvation and reply-path repair (Section 6.2).
//   - Ideal: a contention-free MAC over a unit-disk world, used by tests and
//     fast parameter sweeps.
package mac

import (
	"math/rand"

	"probquorum/internal/phy"
)

// Handler receives MAC indications.
type Handler interface {
	// MACReceive delivers a frame addressed to this node (or broadcast).
	MACReceive(f *phy.Frame)
	// MACSendDone reports the fate of a frame passed to Send: for unicast,
	// ok means the MAC-level ACK arrived; for broadcast, ok is always true
	// once the frame has been transmitted. A false result is the paper's
	// "MAC-level notification" used for salvation and repair.
	MACSendDone(f *phy.Frame, ok bool)
	// MACOverhear delivers frames decoded in promiscuous mode that are
	// addressed to some other node. Only called when promiscuous mode is
	// enabled on the MAC.
	MACOverhear(f *phy.Frame)
}

// MAC is the link-layer service used by the network layer.
type MAC interface {
	// Send queues f for transmission. f.Src is set to this node. Results
	// are reported via the handler's MACSendDone.
	Send(f *phy.Frame)
	// SetHandler registers the layer above.
	SetHandler(h Handler)
	// SetPromiscuous toggles delivery of overheard frames.
	SetPromiscuous(on bool)
	// QueueLen returns the number of frames queued or in flight.
	QueueLen() int
}

// The 802.11 DSSS MAC's timing and size constants (paper Fig. 2), shared by
// DCF and the ideal MAC.
const (
	slotTime = 20e-6 // backoff slot duration, seconds
	sifs     = 10e-6 // short interframe space
	difs     = 50e-6 // distributed interframe space
	// cwMin and cwMax bound the contention window, in slots.
	cwMin, cwMax = 31, 1023
	// retryLimit is the number of transmission attempts of a unicast frame
	// (paper: 7).
	retryLimit = 7
	// Modulation rates in bits/s: unicast data, broadcast data, ACKs.
	unicastRate, broadcastRate, ackRate = 11e6, 2e6, 2e6
	headerBytes                         = 28 // MAC header + FCS, added to every data frame
	ackBytes                            = 14
	queueLimit                          = 50 // interface queue (ns-2 IFQ default)
)

// drawBackoff picks a uniform backoff in [0, cw] slots.
func drawBackoff(rng *rand.Rand, cw int) int { return rng.Intn(cw + 1) }
