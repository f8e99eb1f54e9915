package mac

import (
	"math/rand"

	"probquorum/internal/phy"
	"probquorum/internal/sim"
)

// dcfState enumerates the DCF access states.
type dcfState int

const (
	dcfIdle    dcfState = iota + 1 // nothing to send
	dcfDefer                       // waiting for the channel to go idle
	dcfDIFS                        // counting the DIFS interframe space
	dcfBackoff                     // counting down backoff slots
	dcfTx                          // transmitting a data frame
	dcfWaitAck                     // unicast sent, waiting for the ACK
)

// DCF is a CSMA/CA MAC instance for one node.
type DCF struct {
	engine  *sim.Engine
	id      int
	channel phy.Channel
	handler Handler
	rng     *rand.Rand

	state      dcfState
	queue      sim.Queue[*phy.Frame]
	seq        uint32
	cw         int
	attempts   int
	slotsLeft  int
	countStart float64 // when the current DIFS/backoff countdown began
	timer      *sim.Timer
	ackTimer   *sim.Timer
	// notified is what the channel was last told by SetCarrierNotify.
	notified bool
	// txDoneFn completes the in-flight head-of-line transmission; built
	// once so transmitHead does not allocate a closure per frame. The
	// queue head cannot change between transmitHead and the callback
	// (only finishHead pops, and only from later states), so it is
	// always the transmitted frame.
	txDoneFn func()
	// ack is the ACK frame this node sends, reused while none is pending,
	// and ackFn the bound SIFS callback that puts it on the air; ackEnd is
	// when the last ACK scheduled leaves the air (see sendAck).
	ack    phy.Frame
	ackFn  func()
	ackEnd float64

	// duplicate detection: highest delivered MAC seq per source.
	lastSeq map[int]uint32

	// Stats counters (read by the experiment harness).
	TxData, TxAck, TxRetries, Drops uint64
}

// NewDCF attaches a DCF MAC for node id to its channel ch.
func NewDCF(engine *sim.Engine, id int, ch phy.Channel, rng *rand.Rand) *DCF {
	d := &DCF{
		engine:  engine,
		id:      id,
		channel: ch,
		rng:     rng,
		cw:      cwMin,
		lastSeq: make(map[int]uint32),
	}
	d.timer = sim.NewTimer(engine, d.timerFired)
	d.ackTimer = sim.NewTimer(engine, d.ackTimeout)
	d.txDoneFn = func() { d.txDone(*d.queue.Front()) }
	d.ackFn = func() { d.transmitAck(&d.ack) }
	d.channel.SetHandler(d)
	d.notified = true // a channel starts out notifying
	d.setState(dcfIdle)
	return d
}

// notifyAlways makes every DCF keep its channel's carrier edges on in
// every state: the reference the carrier-gate test compares against.
var notifyAlways bool

// setState moves d to s and tells the channel whether carrier edges are
// wanted: ChannelStateChanged acts only while d contends for the medium —
// in defer, DIFS and backoff — and is a no-op in every other state, so the
// channel need not call it there. The channel is told only when the answer
// changes.
func (d *DCF) setState(s dcfState) {
	d.state = s
	notify := notifyAlways || s == dcfDefer || s == dcfDIFS || s == dcfBackoff
	if notify != d.notified {
		d.notified = notify
		d.channel.SetCarrierNotify(notify)
	}
}

var _ MAC = (*DCF)(nil)
var _ phy.Handler = (*DCF)(nil)

// SetHandler implements MAC.
func (d *DCF) SetHandler(h Handler) { d.handler = h }

// SetPromiscuous implements MAC. The radio holds the flag: it hands up
// frames addressed to other nodes only while it overhears.
func (d *DCF) SetPromiscuous(on bool) { d.channel.SetOverhear(on) }

// QueueLen implements MAC.
func (d *DCF) QueueLen() int { return d.queue.Len() }

// Send implements MAC.
func (d *DCF) Send(f *phy.Frame) {
	if d.queue.Len() >= queueLimit {
		d.Drops++
		if d.handler != nil {
			d.handler.MACSendDone(f, false)
		}
		return
	}
	f.Src = d.id
	f.Kind = phy.FrameData
	d.seq++
	f.Seq = d.seq
	f.Bytes += headerBytes
	if f.Dst == phy.Broadcast {
		f.Rate = broadcastRate
	} else {
		f.Rate = unicastRate
	}
	d.queue.Push(f)
	if d.state == dcfIdle {
		d.startAccess(true)
	}
}

// startAccess begins the channel-access procedure for the head-of-line
// frame. fresh indicates a new frame (reset contention window).
func (d *DCF) startAccess(fresh bool) {
	if fresh {
		d.cw = cwMin
		d.attempts = 0
		d.slotsLeft = drawBackoff(d.rng, d.cw)
	}
	if d.channel.Busy() {
		d.setState(dcfDefer)
		return // resume on ChannelStateChanged(false)
	}
	d.setState(dcfDIFS)
	d.countStart = d.engine.Now()
	d.timer.Reset(difs)
}

// timerFired handles DIFS completion and backoff completion.
func (d *DCF) timerFired() {
	switch d.state {
	case dcfDIFS:
		if d.slotsLeft == 0 {
			d.transmitHead()
			return
		}
		d.setState(dcfBackoff)
		d.countStart = d.engine.Now()
		d.timer.Reset(float64(d.slotsLeft) * slotTime)
	case dcfBackoff:
		d.slotsLeft = 0
		d.transmitHead()
	}
}

// ChannelStateChanged implements phy.Handler.
func (d *DCF) ChannelStateChanged(busy bool) {
	if busy {
		switch d.state {
		case dcfDIFS:
			// DIFS interrupted: restart it once idle.
			d.timer.Cancel()
			d.setState(dcfDefer)
		case dcfBackoff:
			// Freeze the backoff counter at slot granularity.
			elapsed := int((d.engine.Now() - d.countStart) / slotTime)
			if elapsed > d.slotsLeft {
				elapsed = d.slotsLeft
			}
			d.slotsLeft -= elapsed
			d.timer.Cancel()
			d.setState(dcfDefer)
		}
		return
	}
	if d.state == dcfDefer {
		d.setState(dcfDIFS)
		d.countStart = d.engine.Now()
		d.timer.Reset(difs)
	}
}

func (d *DCF) transmitHead() {
	if d.queue.Len() == 0 {
		d.setState(dcfIdle)
		return
	}
	f := *d.queue.Front()
	d.setState(dcfTx)
	d.attempts++
	d.TxData++
	if d.attempts > 1 {
		d.TxRetries++
	}
	dur := d.channel.TxDuration(f)
	d.channel.Transmit(f)
	d.engine.Schedule(dur, d.txDoneFn)
}

func (d *DCF) txDone(f *phy.Frame) {
	if f.Dst == phy.Broadcast {
		d.finishHead(f, true)
		return
	}
	// Unicast: wait for the ACK.
	d.setState(dcfWaitAck)
	ackAir := (&phy.Frame{Bytes: ackBytes, Rate: ackRate}).AirTime()
	d.ackTimer.Reset(sifs + ackAir + 2*slotTime)
}

func (d *DCF) ackTimeout() {
	if d.state != dcfWaitAck {
		return
	}
	f := *d.queue.Front()
	if d.attempts >= retryLimit {
		d.finishHead(f, false)
		return
	}
	// Exponential backoff and retry.
	d.cw = d.cw*2 + 1
	if d.cw > cwMax {
		d.cw = cwMax
	}
	d.slotsLeft = drawBackoff(d.rng, d.cw)
	d.startAccess(false)
}

// finishHead completes the head-of-line frame f and moves on.
func (d *DCF) finishHead(f *phy.Frame, ok bool) {
	d.ackTimer.Cancel()
	d.queue.Pop()
	d.setState(dcfIdle)
	if d.handler != nil {
		d.handler.MACSendDone(f, ok)
	}
	if d.queue.Len() > 0 {
		d.startAccess(true)
	}
}

// FrameReceived implements phy.Handler.
func (d *DCF) FrameReceived(f *phy.Frame) {
	switch f.Kind {
	case phy.FrameAck:
		if f.Dst != d.id || d.state != dcfWaitAck || d.queue.Len() == 0 {
			return
		}
		if head := *d.queue.Front(); f.Seq == head.Seq {
			d.finishHead(head, true)
		}
	case phy.FrameData:
		switch {
		case f.Dst == d.id:
			d.sendAck(f)
			if last, ok := d.lastSeq[f.Src]; ok && last == f.Seq {
				return // duplicate of an already delivered frame
			}
			d.lastSeq[f.Src] = f.Seq
			if d.handler != nil {
				d.handler.MACReceive(f)
			}
		case f.Dst == phy.Broadcast:
			if d.handler != nil {
				d.handler.MACReceive(f)
			}
		default:
			// Only an overhearing radio hands up another node's frame.
			if d.handler != nil {
				d.handler.MACOverhear(f)
			}
		}
	}
}

// sendAck transmits a MAC-level ACK after SIFS. ACKs have priority over the
// DCF access procedure and are sent regardless of carrier state, matching
// the standard's SIFS rule.
//
// The medium reads an ACK frame until its transmission ends, after this
// upcall, so the DCF's own frame and bound callback serve only while no ACK
// is pending, that is up to ackEnd. On a medium that is always so: a node has
// at most one ACK pending or on the air. A data frame that starts during the
// SIFS wait is still on the air when the ACK starts, which aborts its
// reception (half-duplex), and one that starts while the ACK is on the air is
// noise, so the next data frame the node decodes ends after its ACK has. Only
// a caller of FrameReceived twice in one instant, as a test does, takes the
// allocating path.
func (d *DCF) sendAck(data *phy.Frame) {
	now := d.engine.Now()
	ack, fn := &d.ack, d.ackFn
	if now <= d.ackEnd {
		ack = &phy.Frame{}                 //pqlint:allow noalloc(cold path: an ACK is still pending, which no medium produces; see above)
		fn = func() { d.transmitAck(ack) } //pqlint:allow noalloc(the SIFS event of that cold-path ACK)
	}
	*ack = phy.Frame{
		Src:   d.id,
		Dst:   data.Src,
		Kind:  phy.FrameAck,
		Seq:   data.Seq,
		Bytes: ackBytes,
		Rate:  ackRate,
	}
	d.ackEnd = now + sifs + d.channel.TxDuration(ack)
	d.engine.Schedule(sifs, fn)
}

// transmitAck puts ack on the air when its SIFS has passed.
func (d *DCF) transmitAck(ack *phy.Frame) {
	d.TxAck++
	d.channel.Transmit(ack)
}
