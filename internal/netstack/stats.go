package netstack

import "math"

// Counter identifies one of the fixed per-run message counters. Counters
// are array indices, so incrementing one on the transmit hot path is a
// single add with no map hashing or allocation.
type Counter int

// Counters tracked across the stack.
const (
	// CtrAppMsgs counts network-layer transmissions of application
	// (quorum) packets — the paper's "number of messages".
	CtrAppMsgs Counter = iota
	// CtrRoutingMsgs counts AODV control transmissions — the paper's
	// "additional routing overhead".
	CtrRoutingMsgs
	// CtrBeaconMsgs counts heartbeat beacons (amortized per the paper,
	// reported separately).
	CtrBeaconMsgs
	// CtrLossDrops counts frames discarded at a receiver by the injected
	// per-hop loss process (Config.RxLossProb).
	CtrLossDrops
	// CtrRxArrivals counts frames arriving at a live receiver's network
	// layer (deliveries and overhears alike; a duplicated frame's extra
	// copy counts as its own arrival). Together with the drop counters it
	// closes the conservation identity the check package verifies:
	// rxarrivals = rxdelivered + lossdrops + partitiondrops + faultdrops
	// + pending delayed deliveries.
	CtrRxArrivals
	// CtrRxDelivered counts frames actually handed to the node (protocol
	// handler dispatch or overhear taps) after all injected faults.
	CtrRxDelivered
	// CtrPartitionDrops counts frames discarded because sender and
	// receiver were in different network partitions
	// (Network.SetPartitionFunc).
	CtrPartitionDrops
	// CtrFaultDrops counts frames discarded by the injected link-fault
	// process (Network.SetLinkFaultFunc): asymmetric loss, blackhole
	// relays, jamming on the non-SINR stacks, and delayed frames whose
	// receiver died before delivery.
	CtrFaultDrops
	// CtrDupes counts extra frame copies created by duplication faults.
	CtrDupes
	// CtrReorders counts deliveries that overtook an earlier-arrived
	// frame on the same (sender, receiver) link — the observable effect
	// of delay-jitter faults.
	CtrReorders
	numCounters
)

// Latency identifies one of the fixed per-run latency accumulators.
type Latency int

// Latency accumulators tracked across the stack.
const (
	// LatHop accumulates per-transmission MAC latency: the time from
	// handing a unicast frame to the MAC until its send-done upcall (ACK
	// or retry exhaustion). On the SINR stack this surfaces
	// contention; on the ideal stack it is the frame's air time plus DIFS.
	LatHop Latency = iota
	// LatOp accumulates end-to-end quorum operation latency: the time
	// from an operation being issued (by the open-loop workload engine)
	// until its completion callback fires. Percentiles over this series
	// are the `pqexp load` figure's p50/p99 columns.
	LatOp
	numLatencies
)

// Log-scale histogram layout. Each power-of-two octave is split into
// histSubBuckets equal-width sub-buckets, so the relative resolution is
// 9/8 = 12.5% worst case. Bucketing uses math.Frexp — pure exponent/mantissa
// extraction plus exact binary arithmetic (frac−0.5 is exact by Sterbenz,
// ×16 is a power-of-two scale), so the bucket index is bit-deterministic
// across platforms, unlike math.Log-based schemes.
//
// The covered range is [2^-20, 2^13) seconds ≈ [1 µs, 2.3 h): finer than
// any simulated MAC latency below it, longer than any run horizon above
// it. Samples outside land in dedicated underflow/overflow buckets (zero
// and negative samples underflow), so counts are never lost.
const (
	histSubBuckets  = 8
	histMinFrexpExp = -19 // Frexp exponent of 2^-20 (v = frac·2^exp, frac ∈ [0.5,1))
	histMaxFrexpExp = 13  // Frexp exponent of values in [2^12, 2^13)
	histOctaves     = histMaxFrexpExp - histMinFrexpExp + 1
	// histNumBuckets = underflow + octaves×sub + overflow.
	histNumBuckets = histOctaves*histSubBuckets + 2
)

// Hist is a fixed-bucket log-scale histogram. It is a plain value — fully
// inline storage, no allocation to observe, copy, or diff — so it can ride
// inside Accumulator and Snapshot without touching the allocator.
type Hist struct {
	buckets [histNumBuckets]int64
}

// observe folds one sample into the histogram.
func (h *Hist) observe(v float64) {
	h.buckets[histIndex(v)]++
}

// histIndex maps a sample to its bucket index.
func histIndex(v float64) int {
	if !(v > 0) { // zero, negative, NaN → underflow
		return 0
	}
	frac, exp := math.Frexp(v)
	if exp < histMinFrexpExp {
		return 0
	}
	if exp > histMaxFrexpExp {
		return histNumBuckets - 1
	}
	sub := int((frac - 0.5) * (2 * histSubBuckets)) // exact; ∈ [0, histSubBuckets)
	return 1 + (exp-histMinFrexpExp)*histSubBuckets + sub
}

// histUpper returns the exclusive upper bound of bucket i. The underflow
// bucket's bound is the histogram floor; the overflow bucket has no finite
// bound and returns +Inf (callers clamp to the observed Max).
func histUpper(i int) float64 {
	if i == 0 {
		return math.Ldexp(1, histMinFrexpExp-1)
	}
	if i >= histNumBuckets-1 {
		return math.Inf(1)
	}
	i--
	exp := histMinFrexpExp + i/histSubBuckets
	sub := i % histSubBuckets
	return math.Ldexp(1+float64(sub+1)/histSubBuckets, exp-1)
}

// histLower returns the inclusive lower bound of bucket i (zero for the
// underflow bucket).
func histLower(i int) float64 {
	if i == 0 {
		return 0
	}
	return histUpper(i - 1)
}

// quantile returns the q-quantile (q ∈ [0,1]) of the samples in the
// histogram, given their total count and exact extrema. The returned value
// is the upper bound of the bucket holding the rank-⌈q·n⌉ sample, clamped
// to [min, max] — exact to the ~12.5% bucket resolution, and reproducible
// bit-for-bit because it is pure integer rank arithmetic over the buckets.
func (h *Hist) quantile(q float64, count int64, min, max float64) float64 {
	if count <= 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(count)))
	if rank < 1 {
		rank = 1
	}
	if rank > count {
		rank = count
	}
	var cum int64
	for i := range h.buckets {
		cum += h.buckets[i]
		if cum >= rank {
			v := histUpper(i)
			if v > max {
				v = max
			}
			if v < min {
				v = min
			}
			return v
		}
	}
	return max
}

// sub subtracts an earlier histogram's buckets (for phase diffs).
func (h *Hist) sub(o *Hist) {
	for i := range h.buckets {
		h.buckets[i] -= o.buckets[i]
	}
}

// bounds returns the lower bound of the first and the upper bound of the
// last populated bucket — the tightest extrema the bucket resolution can
// recover from a diffed histogram (0, 0 when it holds no samples).
func (h *Hist) bounds() (lo, hi float64) {
	first, last := -1, -1
	for i := range h.buckets {
		if h.buckets[i] > 0 {
			if first < 0 {
				first = i
			}
			last = i
		}
	}
	if first < 0 {
		return 0, 0
	}
	return histLower(first), histUpper(last)
}

// Accumulator aggregates a stream of observations without allocating:
// count, sum, extrema, and a log-scale histogram for quantiles. The zero
// value is ready to use.
type Accumulator struct {
	Count    int64
	Sum      float64
	Min, Max float64
	Hist     Hist
}

// Observe folds one sample into the accumulator.
//
//pqlint:noalloc
func (a *Accumulator) Observe(v float64) {
	if a.Count == 0 || v < a.Min {
		a.Min = v
	}
	if a.Count == 0 || v > a.Max {
		a.Max = v
	}
	a.Count++
	a.Sum += v
	a.Hist.observe(v)
}

// Mean returns the average observation (zero when empty).
func (a Accumulator) Mean() float64 {
	if a.Count == 0 {
		return 0
	}
	return a.Sum / float64(a.Count)
}

// Quantile returns the q-quantile (e.g. 0.5, 0.99) of the observations,
// exact to the histogram's ~12.5% bucket resolution.
func (a *Accumulator) Quantile(q float64) float64 {
	return a.Hist.quantile(q, a.Count, a.Min, a.Max)
}

// Stats is the typed per-run metrics set: fixed-size counter and latency
// arrays owned by one Network. It is not safe for concurrent use; the
// discrete-event engine is single-threaded, and each concurrent run owns
// its own Network and therefore its own Stats (see DESIGN.md §5,
// "Concurrency model").
type Stats struct {
	counters  [numCounters]int64
	latencies [numLatencies]Accumulator
}

// NewStats returns an empty metrics set.
func NewStats() *Stats {
	return &Stats{}
}

// Inc adds delta to the counter.
func (s *Stats) Inc(c Counter, delta int64) { s.counters[c] += delta }

// Get returns the counter's value (zero if never incremented).
func (s *Stats) Get(c Counter) int64 { return s.counters[c] }

// Observe folds one sample into the latency accumulator.
//
//pqlint:noalloc
func (s *Stats) Observe(l Latency, v float64) { s.latencies[l].Observe(v) }

// Latency returns a copy of the accumulator.
func (s *Stats) Latency(l Latency) Accumulator { return s.latencies[l] }

// Snapshot is a point-in-time copy of the counters and latency state
// (count, sum, extrema, histogram). It is a plain value — taking or
// diffing one allocates nothing, so phase boundaries inside a run stay off
// the allocator.
type Snapshot struct {
	counters  [numCounters]int64
	latencies [numLatencies]Accumulator
}

// Get returns the snapshot's (or diff's) counter value.
func (sn Snapshot) Get(c Counter) int64 { return sn.counters[c] }

// LatencyCount returns the number of samples in the snapshot (or, for a
// diff, observed during the diffed interval).
func (sn Snapshot) LatencyCount(l Latency) int64 { return sn.latencies[l].Count }

// LatencyMean returns the mean of the accumulator's samples over the
// snapshot (or, for a diff, over the diffed interval).
func (sn Snapshot) LatencyMean(l Latency) float64 { return sn.latencies[l].Mean() }

// LatencyQuantile returns the q-quantile (e.g. 0.5 or 0.99) of the
// samples in the snapshot or diffed interval, exact to the histogram's
// ~12.5% bucket resolution. Zero when the interval holds no samples.
func (sn *Snapshot) LatencyQuantile(l Latency, q float64) float64 {
	return sn.latencies[l].Quantile(q)
}

// Snapshot copies the current values, e.g. to diff around an experiment
// phase.
func (s *Stats) Snapshot() Snapshot {
	return Snapshot{counters: s.counters, latencies: s.latencies}
}

// DiffSince returns the deltas accumulated since an earlier snapshot.
// Counters, sample counts, sums, and histogram buckets subtract exactly.
// Interval extrema are not recoverable from two running extrema, so when
// the base snapshot already held samples the diff's Min/Max are
// reconstructed from the diffed histogram's populated bucket bounds
// (exact to the ~12.5% bucket resolution); when the base was empty they are
// the exact running extrema.
func (s *Stats) DiffSince(snap Snapshot) Snapshot {
	d := s.Snapshot()
	for i := range d.counters {
		d.counters[i] -= snap.counters[i]
	}
	for i := range d.latencies {
		lat, base := &d.latencies[i], &snap.latencies[i]
		lat.Count -= base.Count
		lat.Sum -= base.Sum
		lat.Hist.sub(&base.Hist)
		if base.Count > 0 {
			lat.Min, lat.Max = lat.Hist.bounds()
		}
	}
	return d
}
