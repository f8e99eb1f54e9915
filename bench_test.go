// Benchmarks of the substrates the simulator's hot paths run on, each read by
// a sentence of DESIGN.md, EXPERIMENTS.md or README.md. The paper's figures
// are pinned and timed by results_quick.txt (`make quick-check`), and every
// end-to-end performance claim is a workload of bench/ (`go run ./bench`).
// `make bench` records these benchmarks and the full `pqexp mega` pair in
// BENCH.json, its only writer; TestBenchJSONHasOneWriter holds the file to
// that.
package probquorum

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"runtime"
	"sort"
	"strings"
	"testing"

	"probquorum/internal/aodv"
	"probquorum/internal/experiment"
	"probquorum/internal/geom"
	"probquorum/internal/membership"
	"probquorum/internal/mobility"
	"probquorum/internal/netstack"
	"probquorum/internal/phy"
	"probquorum/internal/quorum"
	"probquorum/internal/sim"
)

// benchScenario is the paper's two-phase workload on n nodes of the given
// stack, at the default quorum sizes.
func benchScenario(kind netstack.StackKind, n int, seed int64, ads, lookups, lookupNodes int) experiment.Scenario {
	sc := experiment.Scenario{Advertisements: ads, Lookups: lookups, LookupNodes: lookupNodes}
	sc.N, sc.Seed, sc.Link.Stack = n, seed, kind
	sc.Quorum = quorum.DefaultConfig(n)
	return sc
}

func BenchmarkSINRBroadcast(b *testing.B) {
	e := sim.NewEngine(1)
	rng := e.NewStream()
	side := geom.AreaSide(200, 200, 10)
	pts := geom.UniformPoints(rng, 200, side)
	m := phy.NewSINRMedium(e, phy.SINRConfig{
		N: 200, Side: side, Pos: mobility.NewStatic(pts),
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := &phy.Frame{Src: i % 200, Dst: phy.Broadcast, Bytes: 512, Rate: 2e6}
		m.Channel(i % 200).Transmit(f)
		e.Run(e.Now() + 0.01)
	}
}

// BenchmarkSINRBroadcastStorm is BenchmarkSINRBroadcast's layout with the air
// shared: each iteration puts eight frames on it a quarter of a millisecond
// apart (a 512-byte frame lasts 2.2 ms, so all eight overlap) from senders
// spread over the field, then runs them out. One frame at a time every radio's
// sum is a single term; here each signal starts and ends among up to seven
// others, which is where a flood spends its time. ns/arrival divides by the
// receivers the interference cutoff gives the senders, counted here from the
// geometry rather than read from the medium.
func BenchmarkSINRBroadcastStorm(b *testing.B) {
	const n, burst, stride, gapSecs = 200, 8, 25, 0.25e-3
	e := sim.NewEngine(1)
	rng := e.NewStream()
	side := geom.AreaSide(n, 200, 10)
	pts := geom.UniformPoints(rng, n, side)
	m := phy.NewSINRMedium(e, phy.SINRConfig{
		N: n, Side: side, Pos: mobility.NewStatic(pts),
	})
	d := phy.DefaultParams().Derived()
	reach := make([]int, n) // arrivals one frame of sender i creates
	frames := make([]*phy.Frame, n)
	for i := range frames {
		frames[i] = &phy.Frame{Src: i, Dst: phy.Broadcast, Bytes: 512, Rate: 2e6}
		for j := range pts {
			if j != i && d.ReceivedPowerMw(geom.Dist(pts[i], pts[j])) >= d.CutoffMw {
				reach[i]++
			}
		}
	}
	first, arrivals := 0, 0
	var send [burst]func()
	for k := range send {
		send[k] = func() {
			id := (first + k*stride) % n
			arrivals += reach[id]
			m.Channel(id).Transmit(frames[id])
		}
	}
	storm := func() {
		for k, fn := range send {
			e.At(e.Now()+float64(k)*gapSecs, fn)
		}
		e.Run(e.Now() + 0.01)
		first++
	}
	for i := 0; i < n; i++ {
		storm() // every sender has transmitted: the pools are at their high-water marks
	}
	if a := testing.AllocsPerRun(20, storm); a != 0 {
		b.Fatalf("a storm of %d overlapping broadcasts allocates %.1f objects, want 0", burst, a)
	}
	arrivals = 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		storm()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(arrivals), "ns/arrival")
}

// sinrField10k is the static 10k-node cell-noise SINR field the per-broadcast
// and per-query micro-benchmarks share, with its node positions.
func sinrField10k() (*sim.Engine, *phy.SINRMedium, []geom.Point) {
	e := sim.NewEngine(1)
	rng := e.NewStream()
	const n = 10000
	side := geom.AreaSide(n, 200, 10)
	pts := geom.UniformPoints(rng, n, side)
	return e, phy.NewSINRMedium(e, phy.SINRConfig{
		N: n, Side: side, Pos: mobility.NewStatic(pts),
		CellNoise: true,
	}), pts
}

// BenchmarkSINRBroadcast10k measures one broadcast through the cell-noise
// SINR medium on a static 10k-node field: grid candidate collection over the
// carrier-sense radius, the (inline) power evaluation, and the aggregated
// far-field lookups. This is the per-broadcast unit cost the mega scenario
// pays (DESIGN.md §12).
func BenchmarkSINRBroadcast10k(b *testing.B) {
	const n = 10000
	e, m, _ := sinrField10k()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := &phy.Frame{Src: i % n, Dst: phy.Broadcast, Bytes: 512, Rate: 2e6}
		m.Channel(i % n).Transmit(f)
		e.Run(e.Now() + 0.01)
	}
}

// BenchmarkFarNoise measures one far-field query on that field — what every
// lock, corruption and delivery check of a cell-noise run asks — with
// nothing on the air (the common case at delivery: the frame's own sender
// has just left the index), with the handful of concurrent frames a 10k run
// carries network-wide, asked at every node (sparse=8) or at the receivers
// within carrier-sense range of one more sender on the air (lock: what a
// lock asks near another frame's sender; a frame's own receivers ask before
// Transmit enters their sender, so they see sparse=8), and with a load no DCF
// network reaches, where the occupied-row walk must still not lose to
// scanning the whole cell box.
func BenchmarkFarNoise(b *testing.B) {
	const n = 10000
	spread := func(k int) []int {
		ids := make([]int, k)
		for i := range ids {
			ids[i] = i * (n / k)
		}
		return ids
	}
	for _, c := range []struct {
		name  string
		onAir []int
		lock  bool
	}{{"idle", nil, false}, {"sparse=8", spread(8), false}, {"lock", spread(8), true}, {"dense=500", spread(500), false}} {
		b.Run(c.name, func(b *testing.B) {
			_, m, pts := sinrField10k()
			onAir, rx := c.onAir, make([]int, 0, n)
			if c.lock {
				sender := n / 16 // not one of the eight
				onAir = append(onAir, sender)
				cs := m.Params().Derived().CarrierSenseRange
				for id, p := range pts {
					if id != sender && geom.Dist(p, pts[sender]) <= cs {
						rx = append(rx, id)
					}
				}
			} else {
				for id := range n {
					rx = append(rx, id)
				}
			}
			// Frames stay on the air: the engine never runs.
			for _, id := range onAir {
				m.Channel(id).Transmit(&phy.Frame{Src: id, Dst: phy.Broadcast, Bytes: 1500, Rate: 1e6})
			}
			b.ReportAllocs()
			b.ResetTimer()
			heard := 0
			for i := 0; i < b.N; i++ {
				if m.FarNoiseMw(rx[i%len(rx)]) > 0 {
					heard++
				}
			}
			b.ReportMetric(float64(heard)/float64(b.N), "nonzero-ratio")
		})
	}
}

// BenchmarkMegaTick advances a prepared 10k-node SINR/DCF network
// (cell-noise mode, phase-staggered heartbeat discovery) by half a simulated
// second per iteration — roughly 500 beacon broadcasts' worth of DCF
// contention — so ns/op and allocs/op track the steady-state cost of
// mega-scale simulation time rather than one isolated broadcast.
func BenchmarkMegaTick(b *testing.B) {
	e := sim.NewEngine(1)
	netstack.New(e, netstack.Config{N: 10000, CellNoise: true})
	e.Run(10) // spread the first heartbeat cycle out before timing
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Run(e.Now() + 0.5)
	}
}

func BenchmarkDCFUnicastHop(b *testing.B) {
	sc := benchScenario(netstack.StackSINR, 50, 1, 1, 1, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiment.Run(sc)
	}
}

// BenchmarkIdealUnicastHop measures one acknowledged unicast on the ideal
// stack — SendOneHop, the MAC's delivery event, MACSendDone — at two network
// sizes. A hop touches the sender, the destination and the promiscuous
// listeners (none here), so ns/op must not grow with n.
func BenchmarkIdealUnicastHop(b *testing.B) {
	for _, n := range []int{1000, 10000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			e := sim.NewEngine(1)
			net := netstack.New(e, netstack.Config{N: n, Stack: netstack.StackIdeal})
			src := 0
			for len(net.Neighbors(src)) == 0 {
				src++
			}
			dst := net.Neighbors(src)[0]
			pkt := &netstack.Packet{Proto: netstack.ProtoQuorum, Src: src, Dst: dst, Bytes: 512}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				net.Node(src).SendOneHop(dst, pkt, nil)
				e.Run(e.Now() + 0.01)
			}
		})
	}
}

// routedSink is the destination of BenchmarkOracleRoutedMember.
type routedSink struct{ delivered int }

func (s *routedSink) HandlePacket(*netstack.Node, *netstack.Packet, int) { s.delivered++ }

// BenchmarkOracleRoutedMember measures one routed quorum member end to end on
// the oracle router over a static ideal-stack line — the message with its
// inner packet, one envelope per hop, the destination's delivered copy — one
// hop away and ten. allocs/op must be the same at both: a relayed hop costs
// the host pooled envelopes only (DESIGN.md §9).
func BenchmarkOracleRoutedMember(b *testing.B) {
	const proto netstack.ProtocolID = 60
	type member struct {
		key string
		pkt netstack.Packet
	}
	for _, hops := range []int{1, 10} {
		b.Run(fmt.Sprintf("hops=%d", hops), func(b *testing.B) {
			pts := make([]geom.Point, hops+1)
			for i := range pts {
				pts[i] = geom.Point{X: float64(i) * 150}
			}
			e := sim.NewEngine(1)
			net := netstack.New(e, netstack.Config{
				N: len(pts), Side: float64(len(pts)) * 150, Mobility: mobility.NewStatic(pts), Stack: netstack.StackIdeal,
			})
			o := aodv.NewOracle(net)
			sink := &routedSink{}
			net.Node(hops).Register(proto, sink)
			send := func() {
				m := &member{key: "k"}
				m.pkt = netstack.Packet{Proto: proto, Src: 0, Dst: hops, Bytes: 512, Payload: m}
				o.Send(0, hops, &m.pkt, nil)
				e.Run(e.Now() + 1)
			}
			send() // builds the route tree and fills the pools
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				send()
			}
			if sink.delivered != b.N+1 {
				b.Fatalf("%d of %d members delivered", sink.delivered, b.N+1)
			}
		})
	}
}

// BenchmarkWalkLookupIdeal1k measures one early-halting UNIQUE-PATH lookup,
// walk out and reply back, on a static 1000-node ideal stack against keys
// placed by RANDOM advertises: the per-hop path of DESIGN.md §9 end to end.
func BenchmarkWalkLookupIdeal1k(b *testing.B) {
	const n, keys = 1000, 32
	e := sim.NewEngine(1)
	net := netstack.New(e, netstack.Config{N: n, Stack: netstack.StackIdeal})
	qa, ql := quorum.SizeForEpsilon(n, 0.1, 1)
	sys := quorum.New(net, aodv.NewOracle(net), membership.New(net, membership.Config{Lazy: true}), quorum.Config{
		AdvertiseStrategy: quorum.Random, LookupStrategy: quorum.UniquePath,
		AdvertiseSize: qa, LookupSize: ql,
		EarlyHalt: true, Salvation: true, ReplyPathReduction: true, LookupTimeout: 5,
	})
	for k := 0; k < keys; k++ {
		sys.Advertise(k*31%n, fmt.Sprintf("key%d", k), "v", nil)
	}
	e.Run(e.Now() + 30)
	name := make([]string, keys)
	for k := range name {
		name[k] = fmt.Sprintf("key%d", k)
	}
	hits := 0
	done := func(r quorum.LookupResult) {
		if r.Hit {
			hits++
		}
	}
	sent := net.Stats().Get(netstack.CtrAppMsgs)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.Lookup(i*7919%n, name[i%keys], done)
		e.Run(e.Now() + 1)
	}
	b.StopTimer()
	b.ReportMetric(float64(hits)/float64(b.N), "hit-ratio")
	b.ReportMetric(float64(net.Stats().Get(netstack.CtrAppMsgs)-sent)/float64(b.N), "msgs/lookup")
}

// BenchmarkOracleNextHop measures one oracle routing query on a 600-node
// ideal stack, answered both ways aodv.NewOracle can: "tree" is the static
// stack (warm per-destination distance fields), "bfs" the same placement
// declared mobile, where every query is a forward BFS. The clock never
// advances, so the neighbor lists stay memoized on both.
func BenchmarkOracleNextHop(b *testing.B) {
	const n = 600
	side := geom.AreaSide(n, 200, 10)
	for _, router := range []string{"bfs", "tree"} {
		b.Run(fmt.Sprintf("n=%d/%s", n, router), func(b *testing.B) {
			e := sim.NewEngine(1)
			pts := geom.UniformPoints(e.NewStream(), n, side)
			var mob mobility.Model = mobility.NewStatic(pts)
			if router == "bfs" {
				mob = mobility.NewWaypoint(e.NewStream(), n, mobility.WaypointConfig{MinSpeed: 1, MaxSpeed: 1, Side: side}, pts)
			}
			o := aodv.NewOracle(netstack.New(e, netstack.Config{N: n, Side: side, Stack: netstack.StackIdeal, Mobility: mob}))
			for dst := 0; dst < n; dst++ {
				o.HasRoute(0, dst)
			}
			routed := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if o.HasRoute(i*7919%n, i*104729%n) {
					routed++
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(routed)/float64(b.N), "routed-ratio")
		})
	}
}

// BenchmarkRouteTreeBuild measures growing one destination's distance field
// on a static 10k-node ideal stack. With room for a single tree every query
// toward another destination evicts it and starts anew, and a field grows
// only until it covers its asker, so what a query costs is where it is asked
// from: /near asks within four hops of the destination, /far from the
// opposite corner of the area, /exhaust from a failed node no field ever
// reaches — the whole component, which is what every build cost before trees
// were resumable. visited/op is the number of nodes a query leaves labelled.
// /fanout is the quorum layer's use: the version moves (a node fails or comes
// back), then one PrefetchRoutes of 48 random members from a random origin in
// a cache with room for all of them; its visited/op adds up the origin's own
// field and the 48 member trees.
func BenchmarkRouteTreeBuild(b *testing.B) {
	const n, dead = 10000, 1
	e := sim.NewEngine(1)
	net := netstack.New(e, netstack.Config{N: n, Stack: netstack.StackIdeal})
	o := aodv.NewOracle(net)
	o.EnableRouteCache(aodv.RouteCacheConfig{MaxTrees: 1})
	net.Fail(dead)

	// near[k] is a node one to four hops from destination 3+k.
	near := make([]int, 256)
	for k := range near {
		src := 3 + k
		for hop := 0; hop < 4; hop++ {
			if nb := net.Neighbors(src); len(nb) > 0 && nb[len(nb)-1] != 3+k {
				src = nb[len(nb)-1]
			}
		}
		near[k] = src
	}
	// The two connected nodes closest to opposite corners of the area.
	byDiagonal := make([]int, n)
	for id := range byDiagonal {
		byDiagonal[id] = id
	}
	sort.Slice(byDiagonal, func(i, j int) bool {
		p, q := net.Position(byDiagonal[i]), net.Position(byDiagonal[j])
		return p.X+p.Y < q.X+q.Y
	})
	corner := [2]int{byDiagonal[0], byDiagonal[n-1]}
	for k := 1; !o.HasRoute(corner[0], corner[1]); k++ {
		corner = [2]int{byDiagonal[k], byDiagonal[n-1-k]}
	}

	for _, c := range []struct {
		name string
		pair func(i int) (src, dst int)
	}{
		{"near", func(i int) (int, int) { return near[i%len(near)], 3 + i%len(near) }},
		{"far", func(i int) (int, int) { return corner[i%2], corner[(i+1)%2] }},
		{"exhaust", func(i int) (int, int) { return dead, 3 + i%(n-3) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				o.HasRoute(c.pair(i))
			}
			b.StopTimer()
			visited, samples := 0, min(b.N, 64)
			for i := 0; i < samples; i++ {
				src, dst := c.pair(i)
				o.HasRoute(src, dst)
				visited += o.RouteTreeNodes(dst)
			}
			b.ReportMetric(float64(visited)/float64(samples), "visited/op")
		})
	}

	b.Run("fanout", func(b *testing.B) {
		o.EnableRouteCache(aodv.RouteCacheConfig{})
		rng := e.NewStream()
		dsts := make([]int, 48)
		fanOut := func() (origin int) {
			net.Revive(dead)
			net.Fail(dead)
			for k := range dsts {
				dsts[k] = rng.Intn(n)
			}
			origin = net.RandomAliveID(rng)
			o.PrefetchRoutes(origin, dsts)
			return origin
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			fanOut()
		}
		b.StopTimer()
		visited, samples := 0, min(b.N, 64)
		for i := 0; i < samples; i++ {
			visited += o.RouteTreeNodes(fanOut())
			for _, dst := range dsts {
				visited += o.RouteTreeNodes(dst)
			}
		}
		b.ReportMetric(float64(visited)/float64(samples), "visited/op")
	})
}

// BenchmarkParallelSweep measures the worker-pool sweep executor against
// the serial baseline on a fixed 16-run ensemble. Compare the parallel=N
// sub-benchmarks' ns/op to parallel=1: on an N-core machine the runs are
// independent full-stack simulations, so the speedup should be near
// linear until the pool exceeds the core count.
func BenchmarkParallelSweep(b *testing.B) {
	var pts []experiment.Point // 4 points × 4 seeds = 16 runs
	for _, n := range []int{50, 80, 100, 120} {
		pts = append(pts, experiment.Point{Scenario: benchScenario(netstack.StackIdeal, n, 1, 10, 50, 5), Seeds: 4})
	}
	pools := []int{1, 2, 4}
	if ncpu := runtime.NumCPU(); ncpu != 1 && ncpu != 2 && ncpu != 4 {
		pools = append(pools, ncpu)
	}
	for _, workers := range pools {
		b.Run(fmt.Sprintf("parallel=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if res := experiment.RunSweep(pts, workers); len(res) != len(pts) {
					b.Fatalf("sweep: %d results", len(res))
				}
			}
		})
	}
}

// TestBenchJSONHasOneWriter: BENCH.json holds what `make bench` writes and
// nothing else. Every entry's base name (the part before the first '/') is a
// benchmark of this file or the MegaScenario pair `pqexp mega` prints there;
// an entry any other run added, or one of a deleted benchmark, fails.
func TestBenchJSONHasOneWriter(t *testing.T) {
	data, err := os.ReadFile("BENCH.json")
	if err != nil {
		t.Fatal(err)
	}
	var rep struct {
		Benchmarks []struct {
			Name string `json:"name"`
		} `json:"benchmarks"`
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("BENCH.json: %v", err)
	}
	if len(rep.Benchmarks) == 0 {
		t.Fatal("BENCH.json holds no benchmarks")
	}
	f, err := parser.ParseFile(token.NewFileSet(), "bench_test.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	written := map[string]bool{"BenchmarkMegaScenario": true}
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil && strings.HasPrefix(fd.Name.Name, "Benchmark") {
			written[fd.Name.Name] = true
		}
	}
	for _, b := range rep.Benchmarks {
		if base, _, _ := strings.Cut(b.Name, "/"); !written[base] {
			t.Errorf("BENCH.json entry %q: %s is neither a benchmark in bench_test.go nor MegaScenario", b.Name, base)
		}
	}
}
