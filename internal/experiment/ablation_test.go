package experiment

import (
	"testing"

	"probquorum/internal/netstack"
	"probquorum/internal/quorum"
)

// ablation runs the default RANDOM × UNIQUE-PATH mix (early halting,
// salvation and reply-path reduction on, local repair off) with one technique
// toggled, under 55 % per-attempt loss and 0.5–5 m/s mobility on the ideal
// stack: n=100, 10 advertisements, 50 lookups from 5 nodes, averaged over
// seeds 1–8 (400 lookups a variant).
func ablation(mutate func(*quorum.Config)) Result {
	sc := testScenario(netstack.StackIdeal, 100, 1, 10, 50, 5)
	sc.SpeedMax, sc.Link.LossProb = 5, 0.55
	sc.Quorum = quorum.DefaultConfig(sc.N)
	sc.Quorum.LookupTimeout = 10
	mutate(&sc.Quorum)
	return RunSeeds(sc, 8)
}

// TestAblation asserts what each of the four Section 6–7 techniques is for,
// against the same baseline. Recorded over these seeds: baseline hit 0.89 at
// 5.7 msgs/lookup; early halting off 11.3 msgs; reduction off 7.2 msgs, hit
// 0.86; repair on hit 0.91; salvation off hit 0.85.
func TestAblation(t *testing.T) {
	base := ablation(func(*quorum.Config) {})

	t.Run("EarlyHalt", func(t *testing.T) {
		// A walk that does not stop at its first hit pays for the whole
		// |Qℓ|: at least half as many messages again (recorded: twice).
		off := ablation(func(c *quorum.Config) { c.EarlyHalt = false })
		if off.LookupAppMsgs < 1.5*base.LookupAppMsgs {
			t.Errorf("early halting off costs %.2f msgs/lookup, on %.2f: want ≥ 1.5×", off.LookupAppMsgs, base.LookupAppMsgs)
		}
	})
	t.Run("ReplyPathReduction", func(t *testing.T) {
		// Replies that retrace every hop cost more and are lost more often.
		off := ablation(func(c *quorum.Config) { c.ReplyPathReduction = false })
		if off.LookupAppMsgs <= base.LookupAppMsgs {
			t.Errorf("reduction off costs %.2f msgs/lookup, on %.2f: want more", off.LookupAppMsgs, base.LookupAppMsgs)
		}
		if off.HitRatio > base.HitRatio {
			t.Errorf("reduction off hits %.3f, on %.3f: want no higher", off.HitRatio, base.HitRatio)
		}
		if base.Counters.PathReductions == 0 {
			t.Error("no reply hop was skipped with reduction on")
		}
	})
	t.Run("LocalRepair", func(t *testing.T) {
		// A reply whose reverse path broke is routed instead of dropped.
		on := ablation(func(c *quorum.Config) { c.ReplyLocalRepair = true })
		if on.HitRatio <= base.HitRatio {
			t.Errorf("local repair on hits %.3f, off %.3f: want higher", on.HitRatio, base.HitRatio)
		}
		if on.Counters.LocalRepairs+on.Counters.FullRouteRepairs == 0 {
			t.Error("no reply was repaired with local repair on")
		}
	})
	t.Run("Salvation", func(t *testing.T) {
		// A walk that loses a hop tries another neighbour instead of dying.
		off := ablation(func(c *quorum.Config) { c.Salvation = false })
		if base.HitRatio < off.HitRatio {
			t.Errorf("salvation on hits %.3f, off %.3f: want no lower", base.HitRatio, off.HitRatio)
		}
		if base.Counters.Salvations == 0 {
			t.Error("no walk was salvaged with salvation on")
		}
	})
}
