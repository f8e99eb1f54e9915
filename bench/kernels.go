//pqlint:allow nowallclock(kernels report host time per call into one layer; they run after the measured simulation has ended)

package main

import (
	"math/rand"
	"strconv"
	"time"

	"probquorum/internal/netstack"
	"probquorum/internal/phy"
	"probquorum/internal/quorum"
)

// kernels names the K metrics: each times repeated calls into one layer's
// public function on an idle stack and reports host time per call.
var kernels = []struct{ name, unit string }{
	{"sim.schedule_run_ns", "ns"},
	{"geom.within_ns", "ns"},
	{"phy.broadcast_us", "us"},
	{"mac.unicast_hop_us", "us"},
	{"netstack.neighbors_ns", "ns"},
	{"aodv.route_us", "us"},
	{"aodv.route_hops", "count"},
	{"membership.pick_ns", "ns"},
	{"membership.refresh_all_ms", "ms"},
	{"quorum.advertise_us", "us"},
	{"quorum.lookup_us", "us"},
	{"churn.cycle_us", "us"},
}

// kernelProto carries the route kernel's probe packets; no layer of the
// simulator registers it.
const kernelProto netstack.ProtocolID = 99

// stepSecs is how far the engine advances per Run call while a kernel waits
// for an asynchronous completion.
const stepSecs = 0.002

// kernelRun holds what the kernels share.
type kernelRun struct {
	p       *prepared
	rng     *rand.Rand
	minSecs float64 // measuring time per kernel
	// maxWaitSecs bounds the simulated time a kernel waits for one
	// completion before it counts the call and moves on.
	maxWaitSecs float64
}

// perCall calls fn in batches until minSecs have passed and returns the mean
// host seconds per call.
func (k *kernelRun) perCall(batch int, fn func()) float64 {
	calls := 0
	t0 := time.Now()
	for {
		for i := 0; i < batch; i++ {
			fn()
		}
		calls += batch
		if el := time.Since(t0).Seconds(); el >= k.minSecs {
			return el / float64(calls)
		}
	}
}

// await advances the engine in small steps until done reports true.
func (k *kernelRun) await(done *bool) {
	e := k.p.st.engine
	deadline := e.Now() + k.maxWaitSecs
	for !*done && e.Now() < deadline {
		e.Run(e.Now() + stepSecs)
	}
}

func (k *kernelRun) randomAlive() int {
	return k.p.origin(k.rng.Float64())
}

// runKernels times every kernel on p's stack, which must be idle: set up, not
// driven. queueLen pre-fills the engine kernel's heap to the depth the timed
// phase saw.
func runKernels(p *prepared, queueLen int, minSecs float64) values {
	k := &kernelRun{p: p, rng: rand.New(rand.NewSource(p.st.wl.netSeed)), minSecs: minSecs,
		maxWaitSecs: p.st.wl.drainSecs()}
	st, net, e := p.st, p.st.net, p.st.engine
	v := values{}

	// sim: Schedule + Run of one event on a heap of the workload's depth.
	{
		eng := newKernelEngine(queueLen)
		noop := func() {}
		v["sim.schedule_run_ns"] = 1e9 * k.perCall(1024, func() {
			eng.Schedule(1e-6, noop)
			eng.Run(eng.Now() + 1e-6)
		})
	}

	// geom: one range query at the workload's density and carrier-sense radius.
	radius := net.Config().PHY.CarrierSenseRange()
	{
		grid := newKernelGrid(net, radius)
		var out []int
		id := 0
		v["geom.within_ns"] = 1e9 * k.perCall(256, func() {
			out = grid.Within(grid.Position(id), radius, out[:0])
			id = (id + 1) % st.wl.n
		})
	}

	// phy: one broadcast through the shared medium, until it has left the air.
	v["phy.broadcast_us"] = 0
	if m := net.Medium(); m != nil {
		id := 0
		v["phy.broadcast_us"] = 1e6 * k.perCall(8, func() {
			id = (id + 1) % st.wl.n
			ch := m.Channel(id)
			if !net.Alive(id) || ch.Busy() {
				return
			}
			f := &phy.Frame{Src: id, Dst: phy.Broadcast, Kind: phy.FrameData, Bytes: 512, Rate: 2e6}
			ch.Transmit(f)
			e.Run(e.Now() + 2*ch.TxDuration(f))
		})
	}

	// mac: one acknowledged unicast to a neighbour.
	v["mac.unicast_hop_us"] = 1e6 * k.perCall(8, func() {
		src := k.randomAlive()
		nbrs := net.Neighbors(src)
		if len(nbrs) == 0 {
			return
		}
		dst := nbrs[k.rng.Intn(len(nbrs))]
		done := false
		pkt := &netstack.Packet{Proto: kernelProto, Src: src, Dst: dst, TTL: 1, Bytes: 512}
		net.Node(src).SendOneHop(dst, pkt, func(bool) { done = true })
		k.await(&done)
	})

	// netstack: one neighbour-list read.
	{
		id := 0
		v["netstack.neighbors_ns"] = 1e9 * k.perCall(1024, func() {
			_ = net.Neighbors(id)
			id = (id + 1) % st.wl.n
		})
	}

	// aodv: one routed packet between a random pair, until it is delivered.
	{
		var done bool
		var hops, deliveries int
		sink := kernelSink(func(pkt *netstack.Packet) {
			done = true
			hops += pkt.Hops
			deliveries++
		})
		for id := 0; id < st.wl.n; id++ {
			net.Node(id).Register(kernelProto, sink)
		}
		v["aodv.route_us"] = 1e6 * k.perCall(4, func() {
			src, dst := k.randomAlive(), k.randomAlive()
			done = false
			pkt := &netstack.Packet{Proto: kernelProto, Src: src, Dst: dst, Bytes: 512}
			st.router.Send(src, dst, pkt, func(ok bool) {
				if !ok {
					done = true // no route: nothing will be delivered
				}
			})
			k.await(&done)
		})
		v["aodv.route_hops"] = ratio(float64(hops), float64(deliveries))
	}

	// membership: one quorum draw, and one refresh of every view.
	{
		id := 0
		v["membership.pick_ns"] = 1e9 * k.perCall(64, func() {
			_ = st.members.Pick(k.rng, id, st.qa)
			id = (id + 1) % st.wl.n
		})
		v["membership.refresh_all_ms"] = 1e3 * k.perCall(1, st.members.RefreshAll)
	}

	// quorum: one operation at a time, issue to settle, lower layers included.
	{
		i := 0
		v["quorum.advertise_us"] = 1e6 * k.perCall(1, func() {
			done := false
			i++
			st.sys.Advertise(k.randomAlive(), p.keys[i%len(p.keys)], "kernel#"+strconv.Itoa(i),
				func(quorum.AdvertiseResult) { done = true })
			k.await(&done)
		})
		v["quorum.lookup_us"] = 1e6 * k.perCall(1, func() {
			done := false
			i++
			st.sys.Lookup(k.randomAlive(), p.keys[i%len(p.keys)], func(quorum.LookupResult) { done = true })
			k.await(&done)
		})
	}

	// churn: one crash and reboot of a node, with the resets a join triggers.
	v["churn.cycle_us"] = 1e6 * k.perCall(16, func() {
		id := k.randomAlive()
		net.Fail(id)
		net.Revive(id)
		st.sys.ResetNode(id)
		st.members.RefreshNode(id)
	})
	return v
}

// kernelSink is the route kernel's destination handler.
type kernelSink func(pkt *netstack.Packet)

func (s kernelSink) HandlePacket(_ *netstack.Node, pkt *netstack.Packet, _ int) { s(pkt) }
