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

	state       dcfState
	queue       []*phy.Frame
	seq         uint32
	cw          int
	attempts    int
	slotsLeft   int
	countStart  float64 // when the current DIFS/backoff countdown began
	timer       *sim.Timer
	ackTimer    *sim.Timer
	promiscuous bool
	// txDoneFn completes the in-flight head-of-line transmission; built
	// once so transmitHead does not allocate a closure per frame. The
	// queue head cannot change between transmitHead and the callback
	// (only finishHead pops, and only from later states), so it is
	// always the transmitted frame.
	txDoneFn func()

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
		state:   dcfIdle,
		cw:      cwMin,
		lastSeq: make(map[int]uint32),
	}
	d.timer = sim.NewTimer(engine, d.timerFired)
	d.ackTimer = sim.NewTimer(engine, d.ackTimeout)
	d.txDoneFn = func() { d.txDone(d.queue[0]) }
	d.channel.SetHandler(d)
	return d
}

var _ MAC = (*DCF)(nil)
var _ phy.Handler = (*DCF)(nil)

// SetHandler implements MAC.
func (d *DCF) SetHandler(h Handler) { d.handler = h }

// SetPromiscuous implements MAC.
func (d *DCF) SetPromiscuous(on bool) { d.promiscuous = on }

// QueueLen implements MAC.
func (d *DCF) QueueLen() int { return len(d.queue) }

// Send implements MAC.
func (d *DCF) Send(f *phy.Frame) {
	if len(d.queue) >= queueLimit {
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
	d.queue = append(d.queue, f) //pqlint:allow noalloc(amortized and bounded: the queue holds at most queueLimit frames and is re-housed only when it has slid to the end of its backing array)
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
		d.state = dcfDefer
		return // resume on ChannelStateChanged(false)
	}
	d.state = dcfDIFS
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
		d.state = dcfBackoff
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
			d.state = dcfDefer
		case dcfBackoff:
			// Freeze the backoff counter at slot granularity.
			elapsed := int((d.engine.Now() - d.countStart) / slotTime)
			if elapsed > d.slotsLeft {
				elapsed = d.slotsLeft
			}
			d.slotsLeft -= elapsed
			d.timer.Cancel()
			d.state = dcfDefer
		}
		return
	}
	if d.state == dcfDefer {
		d.state = dcfDIFS
		d.countStart = d.engine.Now()
		d.timer.Reset(difs)
	}
}

func (d *DCF) transmitHead() {
	if len(d.queue) == 0 {
		d.state = dcfIdle
		return
	}
	f := d.queue[0]
	d.state = dcfTx
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
	d.state = dcfWaitAck
	ackAir := (&phy.Frame{Bytes: ackBytes, Rate: ackRate}).AirTime()
	d.ackTimer.Reset(sifs + ackAir + 2*slotTime)
}

func (d *DCF) ackTimeout() {
	if d.state != dcfWaitAck {
		return
	}
	f := d.queue[0]
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

// finishHead completes the head-of-line frame and moves on.
func (d *DCF) finishHead(f *phy.Frame, ok bool) {
	d.ackTimer.Cancel()
	d.queue = d.queue[1:]
	d.state = dcfIdle
	if d.handler != nil {
		d.handler.MACSendDone(f, ok)
	}
	if len(d.queue) > 0 {
		d.startAccess(true)
	}
}

// FrameReceived implements phy.Handler.
func (d *DCF) FrameReceived(f *phy.Frame) {
	switch f.Kind {
	case phy.FrameAck:
		if f.Dst != d.id || d.state != dcfWaitAck || len(d.queue) == 0 {
			return
		}
		if f.Seq == d.queue[0].Seq {
			d.finishHead(d.queue[0], true)
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
			if d.promiscuous && d.handler != nil {
				d.handler.MACOverhear(f)
			}
		}
	}
}

// sendAck transmits a MAC-level ACK after SIFS. ACKs have priority over the
// DCF access procedure and are sent regardless of carrier state, matching
// the standard's SIFS rule.
func (d *DCF) sendAck(data *phy.Frame) {
	ack := &phy.Frame{ //pqlint:allow noalloc(one ACK frame per received unicast, not pooled: the medium reads it until the ACK's transmission ends, after this upcall; it shows in BenchmarkDCFUnicastHop's allocs/op)
		Src:   d.id,
		Dst:   data.Src,
		Kind:  phy.FrameAck,
		Seq:   data.Seq,
		Bytes: ackBytes,
		Rate:  ackRate,
	}
	d.engine.Schedule(sifs, func() { //pqlint:allow noalloc(the SIFS event of that ACK, the frame's one companion object)
		d.TxAck++
		d.channel.Transmit(ack)
	})
}
