package workload

import (
	"fmt"
	"math"
	"testing"

	"probquorum/internal/sim"
)

// event records one issued op for sequence comparison.
type event struct {
	at   float64
	node int
	key  string
	wr   bool
}

// record runs cfg for its duration on n nodes, completing every op after
// delay seconds, and returns the exact issue sequence.
func record(seed int64, n int, cfg Config, delay float64) ([]event, Stats) {
	e := sim.NewEngine(seed)
	var seq []event
	var g *Generator
	g = New(e, cfg, nodeIDs(n), func(op Op, done func(bool)) {
		seq = append(seq, event{at: e.Now(), node: op.Node, key: op.Key, wr: op.Write})
		e.Schedule(delay, func() { done(true) })
	})
	g.Start()
	e.Run(cfg.DurationSecs + delay + 10)
	return seq, g.Stats()
}

func nodeIDs(n int) []int {
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	return ids
}

// TestDeterministicDraws is the generator determinism property: the full
// issue sequence — times to the bit, node, key, read/write — is a pure
// function of the seed, for every arrival process and key distribution.
func TestDeterministicDraws(t *testing.T) {
	cases := []Config{
		{Arrival: Poisson, KeyDist: Uniform, RatePerNode: 4, DurationSecs: 30, Keys: 64},
		{Arrival: Poisson, KeyDist: Zipf, RatePerNode: 4, DurationSecs: 30, Keys: 64},
		{Arrival: MMPP, KeyDist: Zipf, RatePerNode: 8, DurationSecs: 30, Keys: 64},
	}
	for _, cfg := range cases {
		t.Run(fmt.Sprintf("%v-%v", cfg.Arrival, cfg.KeyDist), func(t *testing.T) {
			a, sa := record(42, 10, cfg, 0.5)
			b, sb := record(42, 10, cfg, 0.5)
			if len(a) == 0 {
				t.Fatalf("no ops issued")
			}
			if len(a) != len(b) {
				t.Fatalf("sequence lengths differ: %d vs %d", len(a), len(b))
			}
			for i := range a {
				if math.Float64bits(a[i].at) != math.Float64bits(b[i].at) ||
					a[i].node != b[i].node || a[i].key != b[i].key || a[i].wr != b[i].wr {
					t.Fatalf("op %d differs: %+v vs %+v", i, a[i], b[i])
				}
			}
			if sa != sb {
				t.Fatalf("stats differ: %+v vs %+v", sa, sb)
			}
			// A different seed must yield a different sequence (10 nodes ×
			// 30 s × rate ≥ 4 makes a coincidence astronomically unlikely).
			c, _ := record(43, 10, cfg, 0.5)
			same := len(a) == len(c)
			if same {
				for i := range a {
					if math.Float64bits(a[i].at) != math.Float64bits(c[i].at) {
						same = false
						break
					}
				}
			}
			if same {
				t.Fatalf("seeds 42 and 43 produced identical sequences")
			}
		})
	}
}

// TestZipfHotspotSkew checks the Zipf distribution actually concentrates
// load: the hottest key must draw far more than a uniform share.
func TestZipfHotspotSkew(t *testing.T) {
	cfg := Config{Arrival: Poisson, KeyDist: Zipf, RatePerNode: 20, DurationSecs: 50, Keys: 256}
	seq, _ := record(7, 10, cfg, 0.01)
	counts := map[string]int{}
	for _, ev := range seq {
		counts[ev.key]++
	}
	hot := counts["key-0"]
	uniformShare := float64(len(seq)) / float64(cfg.Keys)
	if float64(hot) < 10*uniformShare {
		t.Fatalf("hottest key drew %d of %d ops; want ≥ 10× the uniform share %.1f",
			hot, len(seq), uniformShare)
	}
	// Uniform draws must not show that skew.
	cfg.KeyDist = Uniform
	seq, _ = record(7, 10, cfg, 0.01)
	counts = map[string]int{}
	for _, ev := range seq {
		counts[ev.key]++
	}
	maxC := 0
	for _, c := range counts {
		if c > maxC {
			maxC = c
		}
	}
	if float64(maxC) > 3*float64(len(seq))/float64(cfg.Keys) {
		t.Fatalf("uniform draw is skewed: max key count %d of %d over %d keys",
			maxC, len(seq), cfg.Keys)
	}
}

// TestWindowQueueShed checks the bounded in-flight window: with completions
// far slower than arrivals, the window caps at MaxInFlight, the queue caps
// at twice that, the rest is shed, and the books balance.
func TestWindowQueueShed(t *testing.T) {
	cfg := Config{
		Arrival: Poisson, RatePerNode: 50, DurationSecs: 10,
		MaxInFlight: 4, Keys: 16,
	}
	queue := 2 * cfg.MaxInFlight
	e := sim.NewEngine(11)
	issued := 0
	g := New(e, cfg, nodeIDs(3), func(op Op, done func(bool)) {
		issued++
		e.Schedule(1000, func() { done(false) }) // effectively never during the run
	})
	g.Start()
	e.Run(cfg.DurationSecs + 1)
	st := g.Stats()
	if st.PeakInFlight != cfg.MaxInFlight {
		t.Fatalf("peak in-flight = %d, want %d", st.PeakInFlight, cfg.MaxInFlight)
	}
	if st.PeakQueue != queue {
		t.Fatalf("peak queue = %d, want %d", st.PeakQueue, queue)
	}
	if st.Shed == 0 {
		t.Fatalf("no arrivals shed at 50 ops/s per node against a dead backend")
	}
	// Without completions, exactly window + queue ops per node are admitted.
	wantIssued := int64(3 * cfg.MaxInFlight)
	if st.Issued != wantIssued || int64(issued) != wantIssued {
		t.Fatalf("issued = %d (callback saw %d), want %d", st.Issued, issued, wantIssued)
	}
	if st.Queued != int64(3*queue) {
		t.Fatalf("queued = %d, want %d", st.Queued, 3*queue)
	}
	if st.Completed != 0 || st.Hits != 0 {
		t.Fatalf("phantom completions: %+v", st)
	}
	if st.Reads+st.Writes != st.Issued {
		t.Fatalf("reads %d + writes %d != issued %d", st.Reads, st.Writes, st.Issued)
	}

	// Completions drain the queue and re-admit: run on and verify the
	// queued ops launch once the backlog completes.
	// Two promotion waves of 1000 s completions each, plus slack.
	e.Run(e.Now() + 3500)
	st = g.Stats()
	if st.Issued != wantIssued+int64(3*queue) {
		t.Fatalf("after drain issued = %d, want %d", st.Issued, wantIssued+int64(3*queue))
	}
	if st.Completed != st.Issued {
		t.Fatalf("completed %d != issued %d after full drain", st.Completed, st.Issued)
	}
}

// TestMMPPBurstiness checks the on/off modulation produces burstier
// arrivals than Poisson at a matched mean rate: the variance-to-mean ratio
// of per-second arrival counts (index of dispersion) must be ≈1 for
// Poisson and well above for MMPP.
func TestMMPPBurstiness(t *testing.T) {
	dispersion := func(cfg Config) float64 {
		seq, _ := record(5, 20, cfg, 0.01)
		buckets := make([]int, int(cfg.DurationSecs))
		for _, ev := range seq {
			if b := int(ev.at); b < len(buckets) {
				buckets[b]++
			}
		}
		var sum, sumsq float64
		for _, c := range buckets {
			sum += float64(c)
			sumsq += float64(c) * float64(c)
		}
		n := float64(len(buckets))
		mean := sum / n
		return (sumsq/n - mean*mean) / mean
	}
	poisson := dispersion(Config{Arrival: Poisson, RatePerNode: 2, DurationSecs: 200, Keys: 16})
	// On 1/4 of the time at 8/s: same 2/s mean, strongly modulated.
	mmpp := dispersion(Config{Arrival: MMPP, RatePerNode: 8, DurationSecs: 200, Keys: 16})
	if poisson > 3 {
		t.Fatalf("Poisson index of dispersion = %.2f, want ≈1", poisson)
	}
	if mmpp < 2*poisson {
		t.Fatalf("MMPP index of dispersion = %.2f vs Poisson %.2f: not bursty", mmpp, poisson)
	}
}

// TestLoadSkewAccounting checks the per-node issue accounting behind the
// load-skew metric.
func TestLoadSkewAccounting(t *testing.T) {
	cfg := Config{Arrival: Poisson, RatePerNode: 5, DurationSecs: 40, Keys: 16}
	e := sim.NewEngine(3)
	g := New(e, cfg, []int{10, 20, 30}, func(op Op, done func(bool)) {
		e.Schedule(0.1, func() { done(true) })
	})
	g.Start()
	e.Run(cfg.DurationSecs + 5)
	var total int64
	for _, c := range g.perNodeIssued {
		total += c
	}
	if total != g.Stats().Issued {
		t.Fatalf("per-node sum %d != issued %d", total, g.Stats().Issued)
	}
	skew := g.LoadSkew()
	if skew < 1 || skew > 1.5 {
		t.Fatalf("balanced Poisson load skew = %.3f, want ≈1", skew)
	}
}
