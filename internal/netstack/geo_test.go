package netstack

import (
	"math/rand"
	"slices"
	"testing"

	"probquorum/internal/geom"
	"probquorum/internal/mac"
	"probquorum/internal/mobility"
	"probquorum/internal/phy"
	"probquorum/internal/sim"
)

// scanNeighbors is the geometric medium without an index: every other node
// whose true position lies within Range of id's now, by a scan of all n,
// ascending. It ignores liveness.
func scanNeighbors(net *Network) func(id int) []int {
	var near []int
	return func(id int) []int {
		near = near[:0]
		now := net.engine.Now()
		p := net.mob.Position(id, now)
		for j := 0; j < net.N(); j++ {
			if j != id && geom.Dist2(p, net.mob.Position(j, now)) <= Range*Range {
				near = append(near, j)
			}
		}
		return near
	}
}

// movingField is a waypoint field of n nodes at up to maxSpeed m/s.
func movingField(seed int64, n int, side, maxSpeed float64) mobility.Model {
	return mobility.NewWaypoint(rand.New(rand.NewSource(seed)), n, mobility.WaypointConfig{
		MinSpeed: maxSpeed / 4, MaxSpeed: maxSpeed, Pause: 0.5, Side: side,
	}, nil)
}

// TestOracleNeighborsMatchScanWhileMoving: on a waypoint field at 20 m/s
// with nodes failing and reviving, every list the geometric provider serves
// — Neighbors for live and dead nodes, and the frozen lists after Prepare —
// equals the live members of an all-node scan at that timestamp, queried
// both just after and long after the index refreshed, and Linked agrees
// with the scan for every pair asked. A provider whose index went unpadded
// misses a node that moved into range.
func TestOracleNeighborsMatchScanWhileMoving(t *testing.T) {
	const n, side = 200, 2000.0
	e := sim.NewEngine(1)
	net := New(e, Config{N: n, Side: side, Mobility: movingField(2, n, side, 20), Stack: StackIdeal})
	scan := scanNeighbors(net)
	rng := rand.New(rand.NewSource(3))
	var want []int
	checked := 0
	for step := 0; step < 300; step++ {
		e.Run(e.Now() + 0.05 + rng.Float64()*1.6)
		for k := 0; k < 2; k++ {
			if id := rng.Intn(n); net.Alive(id) {
				net.Fail(id)
			} else {
				net.Revive(id)
			}
		}
		if step%4 == 0 {
			net.PrepareNeighbors()
		}
		for k := 0; k < 25; k++ {
			id := rng.Intn(n)
			want = want[:0]
			for _, v := range scan(id) {
				if net.Alive(v) {
					want = append(want, v)
				}
			}
			if step%4 == 0 && net.Alive(id) {
				if got := net.FrozenNeighbors(id); !slices.Equal(got, want) {
					t.Fatalf("step %d (t=%.3f): frozen list of %d = %v, a scan lists %v", step, e.Now(), id, got, want)
				}
			}
			if got := net.Neighbors(id); !slices.Equal(got, want) {
				t.Fatalf("step %d (t=%.3f): neighbors of %d = %v, a scan lists %v", step, e.Now(), id, got, want)
			}
			for v := 0; v < n; v++ {
				if net.geo.Linked(id, v) != slices.Contains(want, v) {
					t.Fatalf("step %d (t=%.3f): Linked(%d, %d) = %v, a scan lists %v", step, e.Now(), id, v, !slices.Contains(want, v), want)
				}
			}
			checked += len(want)
		}
	}
	if checked < 300*25*4 {
		t.Fatalf("only %d list entries checked: the field is too sparse to test anything", checked)
	}
}

// deliveryEvent is one upcall an IdealNet made.
type deliveryEvent struct {
	time      float64
	node, tag int
	kind      string
	ok        bool
}

// deliveryRun is one run of TestIdealDeliveryMatchesFullScan: a logging
// layer above every MAC of an IdealNet.
type deliveryRun struct {
	n    int
	e    *sim.Engine
	in   *mac.IdealNet
	rng  *rand.Rand
	log  []deliveryEvent
	tags int
	// forwarded counts the sends made from inside MACReceive.
	forwarded int
}

func (r *deliveryRun) send(src, dst int) {
	r.tags++
	r.in.MAC(src).Send(&phy.Frame{Dst: dst, Bytes: 64 + 448*(r.tags%2), Payload: r.tags})
}

// deliveryLogger logs every upcall at its node, and forwards a unicast for
// some received frames from inside MACReceive, so that deliveries are
// scheduled from inside deliveries.
type deliveryLogger struct {
	id  int
	run *deliveryRun
}

func (l *deliveryLogger) MACReceive(f *phy.Frame) {
	r := l.run
	r.log = append(r.log, deliveryEvent{r.e.Now(), l.id, f.Payload.(int), "rx", true})
	if r.rng.Intn(4) == 0 {
		r.forwarded++
		r.send(l.id, r.rng.Intn(r.n))
	}
}

func (l *deliveryLogger) MACOverhear(f *phy.Frame) {
	r := l.run
	r.log = append(r.log, deliveryEvent{r.e.Now(), l.id, f.Payload.(int), "overhear", true})
}

func (l *deliveryLogger) MACSendDone(f *phy.Frame, ok bool) {
	r := l.run
	r.log = append(r.log, deliveryEvent{r.e.Now(), l.id, f.Payload.(int), "done", ok})
}

// TestIdealDeliveryMatchesFullScan drives the ideal MAC over the geometric
// provider — broadcasts and unicasts with loss 0.2, promiscuous listeners
// toggling, liveness flips between events, and frames forwarded from inside
// MACReceive — on a static and on a waypoint field, and requires every
// upcall at the same time and in the same order, and the same Processed(),
// as the same net whose medium is an all-node scan with Dist2 ≤ r², linked
// meaning membership in the scanned list. A provider that hands over its
// candidates in cell order fails it. Each field runs twice: with a fifth of
// the nodes listening and toggling, and with every node listening.
func TestIdealDeliveryMatchesFullScan(t *testing.T) {
	const n, side = 100, 800.0
	for _, c := range []struct{ moving, allListen bool }{{false, false}, {true, false}, {false, true}, {true, true}} {
		moving := c.moving
		run := func(fullScan bool) *deliveryRun {
			e := sim.NewEngine(1)
			mob := mobility.Model(mobility.NewStatic(geom.UniformPoints(rand.New(rand.NewSource(4)), n, side)))
			if moving {
				mob = movingField(4, n, side, 20)
			}
			net := New(e, Config{N: n, Side: side, Mobility: mob, Stack: StackIdeal})
			neighbors, linked := net.geo.Neighbors, net.geo.Linked
			if fullScan {
				neighbors = scanNeighbors(net)
				linked = func(a, b int) bool { return slices.Contains(neighbors(a), b) }
			}
			r := &deliveryRun{n: n, e: e, in: mac.NewIdealNet(e, n, neighbors, linked, rand.New(rand.NewSource(5))), rng: rand.New(rand.NewSource(6))}
			r.in.LossProb = 0.2
			for i := 0; i < n; i++ {
				if i%13 != 0 { // a few MACs have no layer above
					r.in.MAC(i).SetHandler(&deliveryLogger{id: i, run: r})
				}
				r.in.MAC(i).SetPromiscuous(c.allListen || i%5 == 0)
			}
			script := rand.New(rand.NewSource(7))
			for k := 0; k < 3000; k++ {
				// Times on a 1 ms grid, so sends, flips and deliveries
				// coincide.
				at := float64(script.Intn(4000)) * 1e-3
				id := script.Intn(n)
				switch script.Intn(20) {
				case 0:
					e.At(at, func() {
						on := !net.Alive(id)
						if on {
							net.Revive(id)
						} else {
							net.Fail(id)
						}
						r.in.SetEnabled(id, on)
					})
				case 1:
					on := script.Intn(2) == 0 || c.allListen
					e.At(at, func() { r.in.MAC(id).SetPromiscuous(on) })
				case 2, 3, 4, 5, 6:
					e.At(at, func() { r.send(id, phy.Broadcast) })
				default:
					dst := script.Intn(n)
					e.At(at, func() { r.send(id, dst) })
				}
			}
			e.Run(10)
			return r
		}
		fast, ref := run(false), run(true)
		if fast.e.Processed() != ref.e.Processed() || len(fast.log) != len(ref.log) {
			t.Fatalf("%+v: %d events and %d upcalls over the provider, %d and %d over the full scan",
				c, fast.e.Processed(), len(fast.log), ref.e.Processed(), len(ref.log))
		}
		kinds := map[string]int{}
		for i := range fast.log {
			if fast.log[i] != ref.log[i] {
				t.Fatalf("%+v: upcall %d is %+v over the provider, %+v over the full scan", c, i, fast.log[i], ref.log[i])
			}
			kinds[fast.log[i].kind]++
		}
		if kinds["rx"] < 2000 || kinds["overhear"] < 200 || fast.forwarded < 500 {
			t.Fatalf("%+v: %v upcalls and %d frames forwarded: too few to test anything", c, kinds, fast.forwarded)
		}
	}
}
