package main

import (
	"math"
	"sort"

	"probquorum/internal/netstack"
)

// metric describes one reported number. BENCHMARK.json lists the same names,
// units and directions (TestBenchmarkJSONMatches keeps the two in step);
// README.md defines each one.
type metric struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: share of the parent's median it may worsen by
	// Per-layer only: where the number comes from — C, a counter or reading
	// diffed around the untraced timed phase; S, spans and the CPU profile of
	// the traced run; K, a kernel timed on an idle stack.
	source string
}

// endToEnd lists what a user of the simulator sees: how fast it runs the
// paper's operations, what it costs the host, and what the simulated system
// delivered.
var endToEnd = []metric{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "ops_per_s", unit: "1/s", better: "higher", bound: 0.20},
	{name: "allocs_per_op", unit: "count", better: "lower", bound: 0.20},
	{name: "alloc_kb_per_op", unit: "KiB", better: "lower", bound: 0.25},
	{name: "live_heap_mb", unit: "MiB", better: "lower", bound: 0.15},
	{name: "ok_share", unit: "ratio", better: "higher", bound: 0.01},
	{name: "hit_ratio", unit: "ratio", better: "higher", bound: 0.01},
	{name: "msgs_per_op", unit: "count", better: "lower", bound: 0.15},
	{name: "sim_op_geo_ms", unit: "ms", better: "lower", bound: 0.15},
	{name: "sim_op_tail_ms", unit: "ms", better: "lower", bound: 0.20},
}

// perLayer lists the per-layer metrics in report order.
var perLayer = perLayerMetrics()

func perLayerMetrics() []metric {
	lower := func(source, unit string, names ...string) []metric {
		out := make([]metric, len(names))
		for i, n := range names {
			out[i] = metric{name: n, unit: unit, better: "lower", source: source}
		}
		return out
	}
	var m []metric
	add := func(ms ...metric) { m = append(m, ms...) }

	// C — counters and readings around the untraced timed phase.
	add(lower("C", "count", "sim.digest", "sim.events_per_op")...)
	add(lower("C", "ns", "sim.ns_per_event")...)
	add(metric{name: "sim.events_per_s", unit: "1/s", better: "higher", source: "C"})
	add(lower("C", "count", "sim.queue_len_mean")...)
	add(lower("C", "ms", "sim.slice_ms_p50", "sim.slice_ms_p95")...)
	add(lower("C", "count", "netstack.app_msgs_per_op", "netstack.routing_msgs_per_op", "netstack.beacon_msgs_per_op")...)
	add(lower("C", "ratio", "netstack.rx_per_tx", "netstack.drop_share")...)
	add(lower("C", "ms", "mac.hop_ms_mean", "mac.hop_ms_p99")...)
	add(lower("C", "count", "aodv.data_drops_per_kop")...)
	add(metric{name: "quorum.placed_share", unit: "ratio", better: "higher", source: "C"})
	add(lower("C", "count", "quorum.salvations_per_kop", "quorum.reply_drops_per_kop",
		"quorum.local_repairs_per_kop", "quorum.lookup_retries_per_kop", "quorum.walk_drops_per_kop",
		"quorum.advertise_timeouts")...)
	add(metric{name: "quorum.cache_hit_share", unit: "ratio", better: "higher", source: "C"})
	add(lower("C", "count", "membership.dead_refresh_skips", "churn.fails", "churn.joins",
		"check.violations", "runtime.gc_cycles")...)
	add(lower("C", "ms", "runtime.gc_pause_ms")...)
	add(lower("C", "MiB", "runtime.heap_sys_mb")...)

	// S — spans and CPU samples of the traced run.
	for _, l := range cpuLayers {
		add(lower("S", "ratio", l+".cpu_share")...)
	}
	add(lower("S", "us", "quorum.issue_us_per_op", "aodv.send_us_per_call", "quorum.done_us_per_op")...)
	add(lower("S", "ratio", "sim.run_self_share", "trace.overhead_share")...)

	// K — kernels on an idle stack.
	for _, k := range kernels {
		add(lower("K", k.unit, k.name)...)
	}
	return m
}

// values maps metric names to measured values.
type values map[string]float64

// endToEndValues derives the end-to-end metrics from an untraced run.
// setupS is the median over the run's set-ups.
func endToEndValues(r *result, setupS float64) values {
	ops := float64(r.settled())
	lat := sortedCopy(r.latencies)
	hitRatio := 0.0
	if r.lookups > 0 {
		hitRatio = float64(r.hits) / float64(r.lookups)
	}
	return values{
		"setup_s":         setupS,
		"ops_per_s":       ops / r.refS,
		"allocs_per_op":   float64(r.mallocs) / ops,
		"alloc_kb_per_op": float64(r.allocBytes) / 1024 / ops,
		"live_heap_mb":    float64(r.liveHeap) / (1 << 20),
		"ok_share":        r.okShare(),
		"hit_ratio":       hitRatio,
		"msgs_per_op":     float64(r.net.Get(netstack.CtrAppMsgs)+r.net.Get(netstack.CtrRoutingMsgs)) / ops,
		"sim_op_geo_ms":   geoMean(lat) * 1e3,
		"sim_op_tail_ms":  bandMean(lat, 0.90, 0.99) * 1e3,
	}
}

// counterValues derives the C metrics from an untraced run.
func counterValues(r *result) values {
	ops := float64(r.settled())
	kop := ops / 1000
	ev := float64(r.events)
	tx := float64(r.net.Get(netstack.CtrAppMsgs) + r.net.Get(netstack.CtrRoutingMsgs) + r.net.Get(netstack.CtrBeaconMsgs))
	rx := float64(r.net.Get(netstack.CtrRxArrivals))
	drops := float64(r.net.Get(netstack.CtrLossDrops) + r.net.Get(netstack.CtrPartitionDrops) + r.net.Get(netstack.CtrFaultDrops))
	sl := sortedCopy(r.sliceMs)
	return values{
		"sim.digest":                    float64(r.digest),
		"sim.events_per_op":             ev / ops,
		"sim.ns_per_event":              r.wallS * 1e9 / ev,
		"sim.events_per_s":              ev / r.wallS,
		"sim.queue_len_mean":            r.queueLenMean,
		"sim.slice_ms_p50":              quantile(sl, 0.50),
		"sim.slice_ms_p95":              quantile(sl, 0.95),
		"netstack.app_msgs_per_op":      float64(r.net.Get(netstack.CtrAppMsgs)) / ops,
		"netstack.routing_msgs_per_op":  float64(r.net.Get(netstack.CtrRoutingMsgs)) / ops,
		"netstack.beacon_msgs_per_op":   float64(r.net.Get(netstack.CtrBeaconMsgs)) / ops,
		"netstack.rx_per_tx":            ratio(rx, tx),
		"netstack.drop_share":           ratio(drops, rx),
		"mac.hop_ms_mean":               r.net.LatencyMean(netstack.LatHop) * 1e3,
		"mac.hop_ms_p99":                r.net.LatencyQuantile(netstack.LatHop, 0.99) * 1e3,
		"aodv.data_drops_per_kop":       float64(r.dataDrops) / kop,
		"quorum.placed_share":           ratio(r.placedShareSum, float64(r.writesSettled)),
		"quorum.salvations_per_kop":     float64(r.qc.Salvations) / kop,
		"quorum.reply_drops_per_kop":    float64(r.qc.ReplyDrops) / kop,
		"quorum.local_repairs_per_kop":  float64(r.qc.LocalRepairs) / kop,
		"quorum.lookup_retries_per_kop": float64(r.qc.LookupRetries) / kop,
		"quorum.walk_drops_per_kop":     float64(r.qc.WalkDrops) / kop,
		"quorum.advertise_timeouts":     float64(r.qc.AdvertiseTimeouts),
		"quorum.cache_hit_share":        ratio(float64(r.qc.CacheHits), float64(r.hits)),
		"membership.dead_refresh_skips": float64(r.deadRefreshSkips),
		"churn.fails":                   float64(r.churn.Fails),
		"churn.joins":                   float64(r.churn.Joins),
		"check.violations":              float64(r.report.Violations),
		"runtime.gc_cycles":             float64(r.gcCycles),
		"runtime.gc_pause_ms":           float64(r.gcPauseNs) / 1e6,
		"runtime.heap_sys_mb":           float64(r.heapSys) / (1 << 20),
	}
}

// spanValues derives the S metrics from a traced run and the untraced run of
// the same workload and seed.
func spanValues(traced, untraced *result) values {
	v := values{}
	for _, l := range cpuLayers {
		v[l+".cpu_share"] = traced.cpu[l]
	}
	ops := float64(traced.settled())
	agg := &traced.spans.agg
	v["quorum.issue_us_per_op"] = float64(agg[spanAdvertise].total+agg[spanLookup].total) / 1e3 / ops
	v["aodv.send_us_per_call"] = ratio(float64(agg[spanSend].total)/1e3, float64(agg[spanSend].count))
	v["quorum.done_us_per_op"] = float64(agg[spanDone].total) / 1e3 / ops
	v["sim.run_self_share"] = ratio(float64(agg[spanRun].self), float64(agg[spanRun].total))
	v["trace.overhead_share"] = (traced.wallS - untraced.wallS) / untraced.wallS
	return v
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func sortedCopy(x []float64) []float64 {
	s := append([]float64(nil), x...)
	sort.Float64s(s)
	return s
}

// quantile returns the q-quantile of sorted values by linear interpolation
// between closest ranks; 0 for no values.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	if lo >= n-1 {
		return sorted[n-1]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// geoMean returns the geometric mean of the positive values: the typical
// value of a distribution that spans orders of magnitude, which a handful of
// slow samples cannot move the way they move the arithmetic mean. Zeros — a
// lookup answered from the origin's own store takes no simulated time — are
// left out. 0 for no positive value.
func geoMean(vals []float64) float64 {
	var sum float64
	n := 0
	for _, x := range vals {
		if x > 0 {
			sum += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

// bandMean returns the mean of the sorted values whose rank lies between the
// lo- and hi-quantile, such as the tail of a latency distribution short of
// its last percent. Unlike a single order statistic it averages many
// samples, and unlike the mean it ignores the few ops beyond the band.
func bandMean(sorted []float64, lo, hi float64) float64 {
	n := len(sorted)
	a, b := int(lo*float64(n)), int(math.Ceil(hi*float64(n)))
	if b > n {
		b = n
	}
	if a >= b {
		return 0
	}
	var sum float64
	for _, x := range sorted[a:b] {
		sum += x
	}
	return sum / float64(b-a)
}

// quartiles returns what Python's statistics.quantiles(values, n=4) returns
// (the exclusive method), so that -repeat reports the spread the way the
// benchmark's acceptance rule computes it. It needs at least two values.
func quartiles(vals []float64) (q1, q2, q3 float64) {
	s := sortedCopy(vals)
	m := len(s)
	cut := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := i*(m+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// finite reports whether every value is a number.
func (v values) finite() bool {
	for _, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}
