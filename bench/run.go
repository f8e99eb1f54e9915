package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"probquorum/internal/aodv"
	"probquorum/internal/check"
	"probquorum/internal/churn"
	"probquorum/internal/netstack"
	"probquorum/internal/quorum"
)

// slices is how many engine.Run calls the timed phase is cut into.
const slices = 400

// minOKShare is the floor under which a run is measuring time-outs, not
// operations, and is refused.
const minOKShare = 0.85

// prepared is a stack after the set-up phase: warmed up, every key seeded
// once, drained, garbage collected.
type prepared struct {
	st         *stack
	keys       []string
	versions   []int   // writes issued per key so far; value "<key>#<version>"
	inMain     []bool  // node was in the network's largest connected part after warm-up
	setupS     float64 // reference seconds (calib.go)
	setupWallS float64 // host seconds
	problems   []string
}

// origin resolves an arrival's origin draw to a live node of the main part.
func (p *prepared) origin(u float64) int {
	return pickOrigin(p.st.wl.n, func(id int) bool { return p.inMain[id] && p.st.net.Alive(id) }, u)
}

// setupSlices is how many engine.Run calls each of set-up's two simulated
// stretches is cut into, so that calibration bursts fall between them.
const setupSlices = 20

// setup runs the set-up phase of one run. Its work does not depend on the
// arrival seed: it builds the workload's network and seeds the key space from
// the workload's own seed. Its time is taken in reference seconds (calib.go).
func setup(wl *workload, wrap func(aodv.Router) aodv.Router) *prepared {
	clock := newRefClock(false)
	p := &prepared{}
	clock.lap(func() { p.st = buildStack(wl, wrap) })
	st := p.st
	runTo := func(until float64) {
		from := st.engine.Now()
		for s := 1; s <= setupSlices; s++ {
			clock.lap(func() { st.engine.Run(from + (until-from)*float64(s)/setupSlices) })
		}
	}
	runTo(wl.warmupSecs)

	unplaced := 0
	seeds := wl.keys * wl.seedCopies
	clock.lap(func() {
		p.inMain = mainPart(wl.n, st.net.Alive, st.net.Neighbors)
		rng := rand.New(rand.NewSource(wl.netSeed))
		p.keys = make([]string, wl.keys)
		p.versions = make([]int, wl.keys)
		for i := range p.keys {
			p.keys[i] = "key-" + strconv.Itoa(i)
			p.versions[i] = 1
		}
		for j := 0; j < seeds; j++ {
			key := p.keys[j%wl.keys]
			st.engine.Schedule(float64(j)*wl.seedGapSecs, func() {
				st.suite.Advertise(p.origin(rng.Float64()), key, key+"#1", func(r quorum.AdvertiseResult) {
					if writeFailed(r) {
						unplaced++
					}
				})
			})
		}
	})
	runTo(st.engine.Now() + float64(seeds)*wl.seedGapSecs + wl.advertiseTimeout)
	if unplaced > 0 {
		p.problems = append(p.problems, fmt.Sprintf("set-up: %d of %d seeding advertises reached no quorum member", unplaced, seeds))
	}
	clock.lap(runtime.GC)
	p.setupS, p.setupWallS = clock.ref(), clock.wall()
	return p
}

// result is everything one run measured.
type result struct {
	wallS  float64 // host seconds of the timed phase
	refS   float64 // the same in reference seconds (calib.go); equal to wallS in a traced run
	burstS float64 // median calibration burst, 0 in a traced run

	attempted, failed           int
	lookups, hits, misses       int
	writes, writesSettled       int
	invalidRefs, badValues      int
	placedShareSum              float64
	latencies                   []float64 // simulated seconds, hits only, completion order
	events                      uint64
	queueLenMean                float64
	sliceMs                     []float64
	mallocs, allocBytes         uint64
	liveHeap, heapSys           uint64
	gcCycles                    uint32
	gcPauseNs                   uint64
	net                         netstack.Snapshot // diff over the timed phase
	qc                          quorum.Counters   // diff over the timed phase
	dataDrops, deadRefreshSkips uint64
	churn                       churn.Stats
	report                      check.Report
	leakedLookups, leakedAds    int
	digest                      uint32
	problems                    []string // anything that makes the run incorrect
	spans                       *tracer
	cpu                         map[string]float64
	cpuSamples                  int64
}

func (r *result) okShare() float64 { return 1 - float64(r.failed)/float64(r.attempted) }

// settled is how many ops completed, with whatever outcome.
func (r *result) settled() int { return r.hits + r.misses + r.writesSettled }

// timed runs the timed and final phases on a prepared stack.
func timed(p *prepared, seed int64, seconds float64, tr *tracer, floorOK bool) *result {
	st, wl := p.st, p.st.wl
	r := &result{spans: tr, problems: p.problems}

	window := wl.issueWindow(seconds)
	total := window + wl.drainSecs()
	arr := schedule(seed, wl.ops(seconds), window, wl.keys, wl.writeShare)
	r.attempted = len(arr)
	r.latencies = make([]float64, 0, len(arr))
	start := st.engine.Now()

	issueOne := func(op int, a *arrival) {
		origin := p.origin(a.origin)
		key := p.keys[a.key]
		var ref quorum.OpRef
		if a.write {
			r.writes++
			p.versions[a.key]++
			value := key + "#" + strconv.Itoa(p.versions[a.key])
			tr.begin(spanAdvertise, op)
			ref = st.suite.Advertise(origin, key, value, func(res quorum.AdvertiseResult) {
				tr.begin(spanDone, op)
				r.writesSettled++
				r.placedShareSum += float64(res.Placed) / float64(st.qa)
				if writeFailed(res) {
					r.failed++
				}
				tr.end()
			})
			tr.end()
		} else {
			r.lookups++
			tr.begin(spanLookup, op)
			ref = st.suite.Lookup(origin, key, func(res quorum.LookupResult) {
				tr.begin(spanDone, op)
				if res.Hit {
					r.hits++
					r.latencies = append(r.latencies, res.Latency)
					if !validValue(res.Value, key, p.versions[a.key]) {
						r.badValues++
					}
				} else {
					r.misses++
					r.failed++
				}
				tr.end()
			})
			tr.end()
		}
		if !ref.Valid() {
			r.invalidRefs++
		}
	}
	// One pending arrival event at a time: the schedule must not sit in the
	// engine's queue, or the harness would inflate the queue it measures.
	next := 0
	var issue func()
	issue = func() {
		tr.begin(spanIssue, next)
		issueOne(next, &arr[next])
		next++
		if next < len(arr) {
			st.engine.At(start+arr[next].at, issue)
		}
		tr.end()
	}
	st.engine.At(start+arr[0].at, issue)
	if st.churn != nil {
		st.churn.Start()
		st.engine.At(start+window, st.churn.Stop)
	}

	netBefore := st.net.Stats().Snapshot()
	qcBefore := st.sys.Counters()
	dropsBefore, skipsBefore := st.dataDrops(), st.members.DeadRefreshSkips()
	eventsBefore := st.engine.Processed()
	var prof bytes.Buffer
	if tr != nil {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			r.problems = append(r.problems, "cpu profile: "+err.Error())
		}
	}
	clock := newRefClock(tr != nil)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var queueSum int
	for s := 1; s <= slices; s++ {
		clock.lap(func() {
			tr.begin(spanRun, -1)
			st.engine.Run(start + total*float64(s)/slices)
			tr.end()
		})
		queueSum += st.engine.QueueLen()
	}
	runtime.ReadMemStats(&after)
	r.wallS, r.refS, r.burstS = clock.wall(), clock.ref(), clock.burstMedian()
	r.sliceMs = make([]float64, slices)
	for i, w := range clock.work {
		r.sliceMs[i] = w * 1e3
	}
	if tr != nil {
		pprof.StopCPUProfile()
		var err error
		if r.cpu, r.cpuSamples, err = cpuShares(prof.Bytes()); err != nil {
			r.problems = append(r.problems, err.Error())
		}
	}

	r.queueLenMean = float64(queueSum) / slices
	r.events = st.engine.Processed() - eventsBefore
	r.mallocs = after.Mallocs - before.Mallocs
	r.allocBytes = after.TotalAlloc - before.TotalAlloc
	r.gcCycles = after.NumGC - before.NumGC
	r.gcPauseNs = after.PauseTotalNs - before.PauseTotalNs
	r.net = st.net.Stats().DiffSince(netBefore)
	r.qc = diffCounters(st.sys.Counters(), qcBefore)
	r.dataDrops = st.dataDrops() - dropsBefore
	r.deadRefreshSkips = st.members.DeadRefreshSkips() - skipsBefore
	if st.churn != nil {
		r.churn = st.churn.Stats()
	}

	// Final phase: invariants, conservation, live heap.
	r.report = st.suite.Final()
	r.leakedLookups, r.leakedAds = st.sys.LeakedOps()
	runtime.GC()
	runtime.ReadMemStats(&after)
	r.liveHeap, r.heapSys = after.HeapAlloc, after.HeapSys
	runtime.KeepAlive(p) // the heap read above must still see the stack

	// Every op that neither hit nor placed a write has failed, whether it
	// missed, was refused or never settled.
	r.failed += r.attempted - r.settled()
	r.digest = r.simDigest()
	r.verify(floorOK)
	return r
}

// writeFailed reports whether an advertise reached nobody. Placed alone
// cannot say so: a RANDOM advertise settles when every member's packet has
// been handed to its first hop, before the multi-hop ones are stored, so
// Placed at that moment is only a lower bound.
func writeFailed(res quorum.AdvertiseResult) bool {
	return res.Placed == 0 && res.FailedSends >= res.Requested
}

// validValue reports whether a lookup's value is one that was written to key:
// the seeded version or a later one issued no later than now.
func validValue(value, key string, issued int) bool {
	rest, ok := strings.CutPrefix(value, key+"#")
	if !ok {
		return false
	}
	v, err := strconv.Atoi(rest)
	return err == nil && v >= 1 && v <= issued
}

// verify lists what makes the run incorrect.
func (r *result) verify(floorOK bool) {
	bad := func(format string, a ...any) { r.problems = append(r.problems, fmt.Sprintf(format, a...)) }
	if settled := r.settled(); settled != r.attempted {
		bad("issued %d ops but %d settled (hits %d + misses %d + writes %d)", r.attempted, settled, r.hits, r.misses, r.writesSettled)
	}
	if r.invalidRefs > 0 {
		bad("%d ops were refused at issue (invalid OpRef)", r.invalidRefs)
	}
	if r.badValues > 0 {
		bad("%d lookups returned a value never written to their key", r.badValues)
	}
	if r.report.Violations > 0 {
		bad("%d invariant violations, first: %v", r.report.Violations, r.report.Details[0])
	}
	if r.report.Outstanding > 0 || r.leakedLookups+r.leakedAds > 0 {
		bad("ops leaked past the drain: outstanding %d, lookups %d, advertises %d", r.report.Outstanding, r.leakedLookups, r.leakedAds)
	}
	if floorOK && r.okShare() < minOKShare {
		bad("ok_share %.3f is below %.2f: the run measures time-outs", r.okShare(), minOKShare)
	}
}

// diffCounters subtracts the quorum counters the harness reports.
func diffCounters(a, b quorum.Counters) quorum.Counters {
	a.Salvations -= b.Salvations
	a.WalkDrops -= b.WalkDrops
	a.WalkExpirations -= b.WalkExpirations
	a.ReplyDrops -= b.ReplyDrops
	a.LocalRepairs -= b.LocalRepairs
	a.FullRouteRepairs -= b.FullRouteRepairs
	a.PathReductions -= b.PathReductions
	a.Adaptations -= b.Adaptations
	a.CacheHits -= b.CacheHits
	a.OwnerHits -= b.OwnerHits
	a.AdvertiseTimeouts -= b.AdvertiseTimeouts
	a.LookupRetries -= b.LookupRetries
	a.DeadOriginOps -= b.DeadOriginOps
	return a
}

// simDigest folds every simulated quantity of the timed phase into 32 bits:
// two runs with equal digests simulated the same thing. Host readings stay
// out of it.
func (r *result) simDigest() uint32 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		for i := range buf {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	put(r.events)
	for c := netstack.CtrAppMsgs; c <= netstack.CtrReorders; c++ {
		put(uint64(r.net.Get(c)))
	}
	put(uint64(r.net.LatencyCount(netstack.LatHop)))
	put(math.Float64bits(r.net.LatencyMean(netstack.LatHop)))
	for _, v := range []int{
		r.qc.Salvations, r.qc.WalkDrops, r.qc.WalkExpirations, r.qc.ReplyDrops, r.qc.LocalRepairs,
		r.qc.FullRouteRepairs, r.qc.PathReductions, r.qc.Adaptations, r.qc.CacheHits, r.qc.OwnerHits,
		r.qc.AdvertiseTimeouts, r.qc.LookupRetries, r.qc.DeadOriginOps,
		r.hits, r.misses, r.writesSettled, r.failed, r.churn.Fails, r.churn.Joins,
		r.report.Lookups, r.report.Hits, r.report.Intersections, r.report.Advertises,
	} {
		put(uint64(v))
	}
	put(r.dataDrops)
	put(r.deadRefreshSkips)
	put(math.Float64bits(r.placedShareSum))
	for _, l := range r.latencies {
		put(math.Float64bits(l))
	}
	return uint32(h.Sum64())
}
