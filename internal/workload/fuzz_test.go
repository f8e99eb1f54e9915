package workload

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"probquorum/internal/sim"
)

// fuzzNodes issue the fuzzed workload; fuzzBudget bounds the events one node
// may be expected to generate (arrivals, plus MMPP state flips at about one
// per 10 s) for a config to be run rather than only constructed.
const (
	fuzzNodes  = 3
	fuzzBudget = 500
)

// FuzzWorkloadConfig: every Config either makes New panic with a "workload:"
// message naming the bad field, or runs to completion — the issue phase ends,
// RunAll drains the engine within its bound, and every issued op completed.
// Keys and MaxInFlight are fuzzed as int16, which reaches every sign and keeps
// the key table New builds small. A valid config whose expected traffic is
// finite but beyond fuzzBudget is only constructed.
func FuzzWorkloadConfig(f *testing.F) {
	add := func(c Config) {
		f.Add(uint8(c.Arrival), c.RatePerNode, int16(c.Keys), uint8(c.KeyDist), c.WriteFraction, int16(c.MaxInFlight), c.DurationSecs)
	}
	add(Config{DurationSecs: 20})
	add(Config{Arrival: MMPP, KeyDist: Zipf, RatePerNode: 4, Keys: 64, MaxInFlight: 2, DurationSecs: 60})
	// The two inputs that broke the contract: an infinite rate issued ops
	// with the clock stuck at t=0 until RunAll hit its bound, and a negative
	// key count died in makeslice.
	add(Config{RatePerNode: math.Inf(1), DurationSecs: 1})
	add(Config{Keys: -1, DurationSecs: 1})

	f.Fuzz(func(t *testing.T, arrival uint8, rate float64, keys int16, dist uint8, writes float64, window int16, secs float64) {
		cfg := Config{
			Arrival: Arrival(arrival), RatePerNode: rate, Keys: int(keys), KeyDist: KeyDist(dist),
			WriteFraction: writes, MaxInFlight: int(window), DurationSecs: secs,
		}
		e := sim.NewEngine(1)
		var g *Generator
		func() {
			defer func() {
				if r := recover(); r != nil {
					if msg := fmt.Sprint(r); !strings.HasPrefix(msg, "workload: Config.") {
						t.Fatalf("%+v: New panicked without naming a field: %s", cfg, msg)
					}
				}
			}()
			g = New(e, cfg, nodeIDs(fuzzNodes), func(op Op, done func(bool)) {
				e.Schedule(0.01, func() { done(!op.Write) })
			})
		}()
		if g == nil {
			return // rejected, and said why
		}
		rate, span := g.cfg.RatePerNode, g.cfg.DurationSecs
		perNode := rate * span
		if g.cfg.Arrival == MMPP {
			perNode += span / 10
		}
		// A load over budget is skipped, but not one that is infinite because
		// an input is: that config is malformed, and New must have said so.
		if perNode > fuzzBudget && !math.IsInf(rate, 1) && !math.IsInf(span, 1) {
			return
		}
		g.Start()
		if err := e.RunAll(100 * fuzzNodes * (fuzzBudget + 1)); err != nil {
			t.Fatalf("%+v: %v (%+v)", cfg, err, g.Stats())
		}
		if st := g.Stats(); st.Issued != st.Completed || st.Reads+st.Writes != st.Issued {
			t.Fatalf("%+v: books do not balance after the drain: %+v", cfg, st)
		}
	})
}
