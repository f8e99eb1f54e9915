package aodv

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"probquorum/internal/geom"
	"probquorum/internal/mobility"
	"probquorum/internal/netstack"
	"probquorum/internal/sim"
)

// sentRREQs records every request node src transmits, once per frame (as
// the neighbour to receives it), with the frame's size.
func sentRREQs(net *netstack.Network, src, to int) *[]*netstack.Packet {
	var got []*netstack.Packet
	net.SetDeliveryObserver(func(from, rx int, pkt *netstack.Packet) {
		if _, ok := pkt.Payload.(*rreqMsg); ok && from == src && rx == to {
			cp := *pkt
			got = append(got, &cp)
		}
	})
	return &got
}

func targetDsts(req *rreqMsg) []int {
	var dsts []int
	for _, t := range req.Targets {
		dsts = append(dsts, t.Dst)
	}
	return dsts
}

// TestPrefetchFloodsOnceForEveryTarget: a prefetch of three unrouted members
// of a line runs one discovery — one RREQ per ring, naming every member not
// yet answered — and takes exactly the rings a lone discovery of the
// farthest member takes. All three members get routes, and the sends that
// follow join the discovery instead of starting one of their own.
func TestPrefetchFloodsOnceForEveryTarget(t *testing.T) {
	lone := func() uint64 {
		e := sim.NewEngine(1)
		_, r, _ := lineWorld(e, 7, 150)
		e.Schedule(0, func() { r.Send(0, 6, innerPkt(0, 6), nil) })
		e.Run(5)
		return r.Discoveries
	}()

	e := sim.NewEngine(1)
	net, r, sinks := lineWorld(e, 7, 150)
	rreqs := sentRREQs(net, 0, 1)
	members := []int{2, 4, 6}
	ok := map[int]bool{}
	e.Schedule(0, func() {
		r.PrefetchRoutes(0, members)
		if r.Discoveries != 1 {
			t.Fatalf("prefetch originated %d rings, want 1", r.Discoveries)
		}
		for _, m := range members {
			r.Send(0, m, innerPkt(0, m), func(sent bool) { ok[m] = sent })
		}
		if r.Discoveries != 1 {
			t.Fatalf("the sends after the prefetch originated %d rings of their own", r.Discoveries-1)
		}
	})
	e.Run(5)

	if r.Discoveries != lone {
		t.Fatalf("the wave took %d rings, a lone discovery of the farthest member %d", r.Discoveries, lone)
	}
	if uint64(len(*rreqs)) != r.Discoveries {
		t.Fatalf("origin transmitted %d requests for %d rings", len(*rreqs), r.Discoveries)
	}
	first := (*rreqs)[0]
	if got := targetDsts(first.Payload.(*rreqMsg)); !reflect.DeepEqual(got, members) || first.Bytes != rreqBytes+2*rreqTargetBytes {
		t.Fatalf("first request names %v in %d bytes, want %v in %d", got, first.Bytes, members, rreqBytes+2*rreqTargetBytes)
	}
	if last := (*rreqs)[len(*rreqs)-1]; !reflect.DeepEqual(targetDsts(last.Payload.(*rreqMsg)), []int{6}) || last.Bytes != rreqBytes {
		t.Fatalf("last request names %v in %d bytes, want only the farthest member in %d", targetDsts(last.Payload.(*rreqMsg)), last.Bytes, rreqBytes)
	}
	for _, m := range members {
		if !ok[m] || len(sinks[m].pkts) != 1 || !r.HasRoute(0, m) {
			t.Fatalf("member %d: sent %v, delivered %d, route %v", m, ok[m], len(sinks[m].pkts), r.HasRoute(0, m))
		}
	}
	if len(r.nodes[0].disc) != 0 {
		t.Fatalf("%d targets still registered after the wave", len(r.nodes[0].disc))
	}
}

// TestPrefetchSkips: a prefetch starts nothing for the origin itself, a
// repeated member, a member with a valid route or one already under
// discovery, and nothing at all from a dead origin.
func TestPrefetchSkips(t *testing.T) {
	e := sim.NewEngine(1)
	net, r, _ := lineWorld(e, 6, 150)
	rreqs := sentRREQs(net, 0, 1)
	e.Schedule(0, func() {
		r.updateRoute(r.nodes[0], 1, 1, 1, 0, false)
		r.Send(0, 5, innerPkt(0, 5), nil)
		r.PrefetchRoutes(0, []int{0, 1, 5, 3, 3, 4})
		net.Fail(2)
		r.PrefetchRoutes(2, []int{0, 4})
	})
	e.Run(0.02)
	if r.Discoveries != 2 || len(*rreqs) != 2 {
		t.Fatalf("%d rings, %d requests from the origin; want 2 and 2", r.Discoveries, len(*rreqs))
	}
	var named [][]int
	for _, p := range *rreqs {
		named = append(named, targetDsts(p.Payload.(*rreqMsg)))
	}
	if !reflect.DeepEqual(named, [][]int{{5}, {3, 4}}) && !reflect.DeepEqual(named, [][]int{{3, 4}, {5}}) {
		t.Fatalf("the origin's requests name %v, want the send's [5] and the prefetch's [3 4]", named)
	}
}

// TestIntermediateAnswersSomeTargets: a node holding a fresh route to one
// target of a request answers for it (§6.6.2), and forwards a copy naming
// only the others — among them a target its route is staler than the
// request asks for. A request it can answer whole is not forwarded.
func TestIntermediateAnswersSomeTargets(t *testing.T) {
	e := sim.NewEngine(1)
	net, r, _ := lineWorld(e, 7, 150)
	n, st := net.Node(1), r.nodes[1]
	r.updateRoute(st, 4, 2, 3, 5, true)
	r.updateRoute(st, 5, 2, 4, 5, true)
	var reps []rrepMsg
	var fwds []*netstack.Packet
	net.SetDeliveryObserver(func(from, to int, pkt *netstack.Packet) {
		if from != 1 {
			return
		}
		switch msg := pkt.Payload.(type) {
		case *rrepMsg:
			reps = append(reps, *msg)
		case *rreqMsg:
			if to == 2 {
				cp := *pkt
				fwds = append(fwds, &cp)
			}
		}
	})
	ask := func(id uint32, targets ...rreqTarget) {
		req := &rreqMsg{ID: id, Orig: 0, OrigSeq: id, Targets: targets}
		r.handleRREQ(n, st, &netstack.Packet{Proto: netstack.ProtoAODV, Src: 0, TTL: 2, Payload: req}, req, 0)
	}
	e.At(0, func() {
		ask(1, rreqTarget{Dst: 4, DstSeq: 5, HasDSeq: true}, rreqTarget{Dst: 5, DstSeq: 6, HasDSeq: true}, rreqTarget{Dst: 6})
	})
	e.Run(1)
	if want := []rrepMsg{{Orig: 0, Dst: 4, DstSeq: 5, HopCount: 3}}; !reflect.DeepEqual(reps, want) {
		t.Fatalf("replies %+v, want %+v", reps, want)
	}
	if len(fwds) != 1 {
		t.Fatalf("%d forwarded copies, want 1", len(fwds))
	}
	fwd := fwds[0].Payload.(*rreqMsg)
	wantRest := []rreqTarget{{Dst: 5, DstSeq: 6, HasDSeq: true}, {Dst: 6}}
	if !reflect.DeepEqual(fwd.Targets, wantRest) || fwds[0].Bytes != rreqBytes+rreqTargetBytes || fwds[0].TTL != 1 || fwds[0].Hops != 1 {
		t.Fatalf("forwarded %+v in %d bytes at TTL %d, hop count %d; want %+v in %d bytes at TTL 1, hop count 1",
			fwd.Targets, fwds[0].Bytes, fwds[0].TTL, fwds[0].Hops, wantRest, rreqBytes+rreqTargetBytes)
	}

	e.At(2, func() { ask(2, rreqTarget{Dst: 4}, rreqTarget{Dst: 5}) })
	e.Run(3)
	if len(reps) != 3 || len(fwds) != 1 {
		t.Fatalf("a request answered whole: %d replies in all, %d forwarded copies; want 3 and still 1", len(reps), len(fwds))
	}
}

// TestUnreachableTargetFailsAfterFullRetries: a wave with one target out of
// everyone's reach delivers to the reachable ones, and fails the unreachable
// one's packets only after the full ring search and its network-wide
// retries — the same rings, at the same time, as a lone discovery of it.
func TestUnreachableTargetFailsAfterFullRetries(t *testing.T) {
	pts := []geom.Point{{X: 0}, {X: 150}, {X: 300}, {X: 450}, {X: 600}, {X: 9000}}
	world := func() (*sim.Engine, *Routing, []*sink) {
		e := sim.NewEngine(1)
		net := netstack.New(e, netstack.Config{
			N: len(pts), Side: 10000, Mobility: mobility.NewStatic(pts), Stack: netstack.StackIdeal,
		})
		sinks := make([]*sink, len(pts))
		for i := range sinks {
			sinks[i] = &sink{}
			net.Node(i).Register(testProto, sinks[i])
		}
		return e, New(net, Config{}), sinks
	}

	e, r, _ := world()
	var loneAt float64
	e.Schedule(0, func() { r.Send(0, 5, innerPkt(0, 5), func(bool) { loneAt = e.Now() }) })
	e.Run(60)
	loneRings := r.Discoveries

	e, r, sinks := world()
	type outcome struct {
		ok bool
		at float64
	}
	got := map[int][]outcome{}
	e.Schedule(0, func() {
		r.PrefetchRoutes(0, []int{2, 5, 4})
		for _, m := range []int{2, 5, 4, 5} {
			r.Send(0, m, innerPkt(0, m), func(ok bool) { got[m] = append(got[m], outcome{ok, e.Now()}) })
		}
	})
	e.Run(60)
	for _, m := range []int{2, 4} {
		if len(got[m]) != 1 || !got[m][0].ok || len(sinks[m].pkts) != 1 {
			t.Fatalf("reachable member %d: outcomes %v, %d delivered", m, got[m], len(sinks[m].pkts))
		}
	}
	if want := []outcome{{false, loneAt}, {false, loneAt}}; !reflect.DeepEqual(got[5], want) {
		t.Fatalf("unreachable member: outcomes %v, want %v (a lone discovery's)", got[5], want)
	}
	if r.Discoveries != loneRings {
		t.Fatalf("the wave took %d rings, a lone discovery of the unreachable member %d", r.Discoveries, loneRings)
	}
}

// TestResetNodeMidWave: resetting the origin while a wave is pending fails
// every buffered packet exactly once, in ascending destination order, and
// the wave's timer never fires again.
func TestResetNodeMidWave(t *testing.T) {
	e := sim.NewEngine(3)
	net, r, _ := lineWorld(e, 10, 150)
	for _, id := range []int{6, 7, 8, 9} {
		net.Fail(id)
	}
	var failed []int
	e.Schedule(0, func() {
		r.PrefetchRoutes(0, []int{9, 2, 7, 6})
		for _, dst := range []int{9, 2, 7, 6, 7} {
			r.Send(0, dst, innerPkt(0, dst), func(ok bool) {
				if ok {
					t.Errorf("send to %d reported success after the reset", dst)
				}
				failed = append(failed, dst)
			})
		}
	})
	e.Schedule(0.05, func() { r.ResetNode(0) })
	e.Run(0.06)
	rings := r.Discoveries
	e.Run(60)
	if want := []int{2, 6, 7, 7, 9}; !reflect.DeepEqual(failed, want) {
		t.Fatalf("packets failed %v, want %v", failed, want)
	}
	if rings != 1 || r.Discoveries != rings {
		t.Fatalf("%d rings before the reset, %d after it; want one, and no more", rings, r.Discoveries-rings)
	}
	if len(r.nodes[0].disc) != 0 {
		t.Fatalf("%d targets still registered after the reset", len(r.nodes[0].disc))
	}
}

// noPrefetch hides Routing's PrefetchRoutes: a fan-out through it runs one
// single-target discovery per member, the oracle of the wave.
type noPrefetch struct{ Router }

// fanKey names one member of one fan-out.
type fanKey struct{ fan, member int }

// fanOutcome is what a run of fan-outs did: the hops each delivered packet
// took, and per send how often its done fired and with what.
type fanOutcome struct {
	hops        map[fanKey]int
	dones, oks  map[fanKey]int
	discoveries uint64
}

// runFanOuts drives fan-outs (origin first, members after) through AODV on a
// static ideal-MAC field, one every 0.7 s so that later ones meet the routes
// earlier ones left, the way a RANDOM quorum access does (quorum/direct.go):
// a prefetch if the router offers one, then a Send per member. wrap may hide
// the prefetch.
func runFanOuts(pts []geom.Point, side float64, fanOuts [][]int, wrap func(*Routing) Router) fanOutcome {
	e := sim.NewEngine(1)
	net := netstack.New(e, netstack.Config{N: len(pts), Side: side, Mobility: mobility.NewStatic(pts), Stack: netstack.StackIdeal})
	r := New(net, Config{})
	router := wrap(r)
	out := fanOutcome{hops: map[fanKey]int{}, dones: map[fanKey]int{}, oks: map[fanKey]int{}}
	sinks := make([]*sink, len(pts))
	for i := range sinks {
		sinks[i] = &sink{}
		net.Node(i).Register(testProto, sinks[i])
	}
	for k, fan := range fanOuts {
		origin, members := fan[0], fan[1:]
		e.At(0.7*float64(k), func() {
			if p, ok := router.(RoutePrefetcher); ok {
				p.PrefetchRoutes(origin, members)
			}
			for _, m := range members {
				key := fanKey{k, m}
				pkt := &netstack.Packet{Proto: testProto, Src: origin, Dst: m, Bytes: 512, Payload: key}
				router.Send(origin, m, pkt, func(ok bool) {
					out.dones[key]++
					if ok {
						out.oks[key]++
					}
				})
			}
		})
	}
	e.Run(0.7*float64(len(fanOuts)) + 60)
	for _, s := range sinks {
		for _, pkt := range s.pkts {
			out.hops[pkt.Payload.(fanKey)] = pkt.Hops
		}
	}
	out.discoveries = r.Discoveries
	return out
}

// TestWaveMatchesPerMemberDiscovery is the wave's oracle (DESIGN §9, the
// fast-path table): the same RANDOM-style fan-outs on the same static
// ideal-MAC field, once through Routing itself, where each fan-out runs one
// multi-target discovery, and once through noPrefetch, where every member
// runs its own. Both must reach the same members, and every send's done must
// fire exactly once with the same verdict. Route lengths are held to a
// stated bound rather than to equality: a search takes the first request to
// arrive, and with 10 ms of control jitter per hop against a sub-millisecond
// hop, and intermediate nodes answering from routes earlier fan-outs left,
// the first to arrive need not have come the shortest way, in either run.
// So every route must be at least the field's shortest path and at most
// maxExcess hops longer, and the two runs' mean excess over the shortest
// paths must agree within maxMeanGap hops. Seed 5 reads 0.47 through the
// wave and 0.53 per member, with a worst excess of 5 in both.
func TestWaveMatchesPerMemberDiscovery(t *testing.T) {
	const (
		n          = 90
		side       = 1100.0
		fans       = 14
		size       = 19 // 2√n
		maxExcess  = 6
		maxMeanGap = 0.2
	)
	rng := rand.New(rand.NewSource(5))
	pts := geom.UniformPoints(rng, n, side)
	// hopsFrom is the unit-disk graph's BFS hop count from src; -1: not
	// reachable.
	hopsFrom := func(src int) []int {
		d := make([]int, n)
		for i := range d {
			d[i] = -1
		}
		d[src] = 0
		for q := []int{src}; len(q) > 0; q = q[1:] {
			for v := range pts {
				if d[v] < 0 && geom.Dist(pts[q[0]], pts[v]) <= netstack.Range {
					d[v] = d[q[0]] + 1
					q = append(q, v)
				}
			}
		}
		return d
	}
	var fanOuts [][]int
	shortest := map[fanKey]int{}
	for k := 0; k < fans; k++ {
		origin := rng.Intn(n)
		d := hopsFrom(origin)
		fan := []int{origin}
		for _, m := range rng.Perm(n) {
			if len(fan) <= size && m != origin && d[m] > 0 {
				fan = append(fan, m)
				shortest[fanKey{k, m}] = d[m]
			}
		}
		fanOuts = append(fanOuts, fan)
	}

	wave := runFanOuts(pts, side, fanOuts, func(r *Routing) Router { return r })
	single := runFanOuts(pts, side, fanOuts, func(r *Routing) Router { return noPrefetch{r} })

	excessWave, excessSingle := 0, 0
	for key, want := range shortest {
		if wave.dones[key] != 1 || single.dones[key] != 1 {
			t.Fatalf("fan-out %d, member %d: done fired %d times through the wave, %d per member; want once each",
				key.fan, key.member, wave.dones[key], single.dones[key])
		}
		hw, okw := wave.hops[key]
		hs, oks := single.hops[key]
		if okw != oks || wave.oks[key] != single.oks[key] {
			t.Fatalf("fan-out %d, member %d: reached %v (done ok %d) through the wave, %v (done ok %d) per member",
				key.fan, key.member, okw, wave.oks[key], oks, single.oks[key])
		}
		if !okw {
			continue
		}
		if hw < want || hs < want || hw > want+maxExcess || hs > want+maxExcess {
			t.Fatalf("fan-out %d, member %d: %d hops through the wave, %d per member; want both in [%d, %d]",
				key.fan, key.member, hw, hs, want, want+maxExcess)
		}
		excessWave, excessSingle = excessWave+hw-want, excessSingle+hs-want
	}
	reached := float64(len(wave.hops))
	meanWave, meanSingle := float64(excessWave)/reached, float64(excessSingle)/reached
	if math.Abs(meanWave-meanSingle) > maxMeanGap {
		t.Fatalf("mean excess over the shortest path: %.3f hops through the wave, %.3f per member; want within %.2f",
			meanWave, meanSingle, maxMeanGap)
	}
	// The comparison must cover what it claims: nearly every member
	// reached, and far fewer rings through the wave.
	if len(wave.hops) < len(shortest)*95/100 || 2*wave.discoveries > single.discoveries {
		t.Fatalf("comparison too weak: %d of %d members reached; %d rings through the wave, %d per member",
			len(wave.hops), len(shortest), wave.discoveries, single.discoveries)
	}
	t.Logf("%d sends, %d reached; mean excess over the shortest path %.3f hops through the wave, %.3f per member; rings %d wave, %d per member",
		len(shortest), len(wave.hops), meanWave, meanSingle, wave.discoveries, single.discoveries)
}
