package mac

import (
	"math/rand"
	"slices"
	"testing"

	"probquorum/internal/geom"
	"probquorum/internal/phy"
	"probquorum/internal/sim"
)

// TestIdealListenerListExact pins the bookkeeping behind the unicast path's
// overhearing: the count of listening MACs and their promiscuous flags are
// exactly the MACs switched on, whatever the order and repetition of the
// toggles, and liveness flips do not touch them (a disabled listener is
// skipped at delivery, not unlisted).
func TestIdealListenerListExact(t *testing.T) {
	e := sim.NewEngine(1)
	in, _ := idealWorld(e, make([]geom.Point, 6))
	check := func(step string, want ...int) {
		t.Helper()
		if in.listening != len(want) {
			t.Fatalf("%s: %d listening, want %v", step, in.listening, want)
		}
		for id, m := range in.macs {
			if listed := slices.Contains(want, id); listed != m.promiscuous {
				t.Fatalf("%s: node %d promiscuous=%v but listed=%v", step, id, m.promiscuous, listed)
			}
		}
	}
	check("initial")
	in.MAC(4).SetPromiscuous(true)
	in.MAC(1).SetPromiscuous(true)
	in.MAC(4).SetPromiscuous(true) // toggled on twice: listed once
	check("on twice", 1, 4)
	in.MAC(5).SetPromiscuous(true)
	in.MAC(0).SetPromiscuous(true)
	check("out of order", 0, 1, 4, 5)
	in.SetEnabled(1, false)
	check("disabled listener stays listed", 0, 1, 4, 5)
	in.MAC(1).SetPromiscuous(false) // off while disabled
	in.MAC(1).SetPromiscuous(false) // and off twice
	in.MAC(3).SetPromiscuous(false) // never on
	check("off while disabled", 0, 4, 5)
	in.SetEnabled(1, true)
	check("re-enabled, still off", 0, 4, 5)
	in.MAC(0).SetPromiscuous(false)
	in.MAC(5).SetPromiscuous(false)
	in.MAC(4).SetPromiscuous(false)
	check("all off")
}

// nopHandler is a layer above that keeps nothing.
type nopHandler struct{}

func (nopHandler) MACReceive(*phy.Frame)        {}
func (nopHandler) MACOverhear(*phy.Frame)       {}
func (nopHandler) MACSendDone(*phy.Frame, bool) {}

// TestIdealUnicastHopAllocFree pins Send → deliver (destination and one
// overhearer) → completion on the ideal MAC at zero allocations once the
// flight and event pools are warm.
func TestIdealUnicastHopAllocFree(t *testing.T) {
	e := sim.NewEngine(1)
	pts := []geom.Point{{X: 0, Y: 0}, {X: 100, Y: 0}, {X: 0, Y: 100}}
	in := diskNet(e, pts)
	for id := range pts {
		in.MAC(id).SetHandler(nopHandler{})
	}
	in.MAC(2).SetPromiscuous(true)
	f := &phy.Frame{Dst: 1}
	hop := func() {
		f.Bytes = 512
		in.MAC(0).Send(f)
		e.Run(e.Now() + 1)
	}
	for i := 0; i < 8; i++ {
		hop()
	}
	if avg := testing.AllocsPerRun(100, hop); avg != 0 {
		t.Fatalf("ideal unicast hop allocates %.1f objects in steady state, want 0", avg)
	}
}

// laneEvent is one upcall an IdealNet made, for TestIdealLanesMatchHeap.
type laneEvent struct {
	time      float64
	node, tag int
	kind      string
	ok        bool
}

// laneLogger is a layer above that logs every upcall into a log shared by
// all nodes, and forwards some received unicasts to a random node from
// inside MACReceive, so that flights are scheduled from inside flights.
type laneLogger struct {
	id    int
	world *laneWorld
}

type laneWorld struct {
	e    *sim.Engine
	in   *IdealNet
	rng  *rand.Rand
	log  []laneEvent
	tags int
}

func (w *laneWorld) send(src, dst, bytes int) {
	w.tags++
	w.in.MAC(src).Send(&phy.Frame{Dst: dst, Bytes: bytes, Payload: w.tags})
}

func (l *laneLogger) MACReceive(f *phy.Frame) {
	w := l.world
	w.log = append(w.log, laneEvent{w.e.Now(), l.id, f.Payload.(int), "rx", true})
	if f.Dst != phy.Broadcast && w.rng.Intn(3) == 0 {
		w.send(l.id, w.rng.Intn(len(w.in.macs)), laneSizes[w.rng.Intn(len(laneSizes))])
	}
}

func (l *laneLogger) MACOverhear(f *phy.Frame) {
	w := l.world
	w.log = append(w.log, laneEvent{w.e.Now(), l.id, f.Payload.(int), "overhear", true})
}

func (l *laneLogger) MACSendDone(f *phy.Frame, ok bool) {
	w := l.world
	w.log = append(w.log, laneEvent{w.e.Now(), l.id, f.Payload.(int), "done", ok})
}

// laneSizes are the frame sizes TestIdealLanesMatchHeap sends: seven air
// times, more than maxLanes.
var laneSizes = []int{40, 64, 128, 256, 512, 1024, 1500}

// TestIdealLanesMatchHeap sends unicasts of more distinct air times than a
// net keeps lanes, and broadcasts, through a lossy field with overhearers
// and forwarding from inside deliveries, and requires every upcall at the
// same time and in the same order, and the same Processed(), as a net whose
// flights all go through the engine's heap: one whose lane slots are all
// taken by an air time no frame has.
func TestIdealLanesMatchHeap(t *testing.T) {
	const n = 30
	run := func(allHeap bool) ([]laneEvent, *laneWorld) {
		e := sim.NewEngine(1)
		rng := rand.New(rand.NewSource(5))
		pts := make([]geom.Point, n)
		for i := range pts {
			pts[i] = geom.Point{X: rng.Float64() * 500, Y: rng.Float64() * 500}
		}
		w := &laneWorld{e: e, rng: rng, in: diskNet(e, pts)}
		w.in.LossProb = 0.2
		if allHeap {
			for i := 0; i < maxLanes; i++ {
				w.in.lanes = append(w.in.lanes, e.NewLane(1e6+float64(i)))
			}
		}
		for i := 0; i < n; i++ {
			w.in.MAC(i).SetHandler(&laneLogger{id: i, world: w})
			w.in.MAC(i).SetPromiscuous(i%5 == 0)
		}
		for k := 0; k < 2000; k++ {
			src, dst := rng.Intn(n), rng.Intn(n)
			if rng.Intn(5) == 0 {
				dst = phy.Broadcast
			}
			bytes := laneSizes[rng.Intn(len(laneSizes))]
			// Times on a 1 ms grid, so sends coincide with deliveries.
			e.At(float64(rng.Intn(2000))*1e-3, func() { w.send(src, dst, bytes) })
		}
		e.Run(10)
		return w.log, w
	}
	lanes, lw := run(false)
	heap, hw := run(true)
	if len(lw.in.lanes) != maxLanes {
		t.Fatalf("the net made %d lanes, want all %d taken", len(lw.in.lanes), maxLanes)
	}
	if lw.e.Processed() != hw.e.Processed() || len(lanes) != len(heap) {
		t.Fatalf("with lanes %d events and %d upcalls, all through the heap %d and %d", lw.e.Processed(), len(lanes), hw.e.Processed(), len(heap))
	}
	for i := range lanes {
		if lanes[i] != heap[i] {
			t.Fatalf("upcall %d is %+v with lanes, %+v all through the heap", i, lanes[i], heap[i])
		}
	}
	if fwd := lw.tags - 2000; fwd < 100 {
		t.Fatalf("only %d frames forwarded from inside deliveries", fwd)
	}
}
