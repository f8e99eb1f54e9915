package quorum

import (
	"fmt"
	"testing"

	"probquorum/internal/netstack"
)

// TestDeadOriginOpRefInvalid covers the dead-origin issue paths: the done
// callback still fires (with a zero-value result), but the returned ref is
// explicitly invalid — the op was never registered, so diagnostics on it
// would return zeros indistinguishable from a real op's — and nothing
// lingers in the pending maps.
func TestDeadOriginOpRefInvalid(t *testing.T) {
	w := newWorld(1, 40, Config{AdvertiseStrategy: Flooding, LookupStrategy: Flooding})
	w.e.Run(5)

	dead := 7
	w.net.Fail(dead)

	var adRes *AdvertiseResult
	adRef := w.sys.Advertise(dead, "k", "v", func(r AdvertiseResult) { adRes = &r })
	if adRef.Valid() {
		t.Fatalf("dead-origin Advertise returned a valid ref")
	}
	var lkRes *LookupResult
	lkRef := w.sys.Lookup(dead, "k", func(r LookupResult) { lkRes = &r })
	if lkRef.Valid() {
		t.Fatalf("dead-origin Lookup returned a valid ref")
	}
	var clRes *CollectResult
	clRef := w.sys.LookupCollect(dead, "k", 5, func(r CollectResult) { clRes = &r })
	if clRef.Valid() {
		t.Fatalf("dead-origin LookupCollect returned a valid ref")
	}
	if lk, ads := len(w.sys.lookups), len(w.sys.ads); lk != 0 || ads != 0 {
		t.Fatalf("dead-origin ops registered in pending maps: %d lookups, %d ads", lk, ads)
	}

	w.e.Run(w.e.Now() + 1)
	if adRes == nil || adRes.Placed != 0 {
		t.Fatalf("dead-origin Advertise done = %+v, want zero-value result", adRes)
	}
	if lkRes == nil || lkRes.Hit {
		t.Fatalf("dead-origin Lookup done = %+v, want miss", lkRes)
	}
	if clRes == nil || clRes.Intersected {
		t.Fatalf("dead-origin LookupCollect done = %+v, want empty", clRes)
	}
	if got := w.sys.Counters().DeadOriginOps; got != 3 {
		t.Fatalf("DeadOriginOps = %d, want 3", got)
	}

	// The live-origin path returns valid refs.
	if ref := w.sys.Advertise(3, "k2", "v", nil); !ref.Valid() {
		t.Fatalf("live-origin Advertise returned an invalid ref")
	}
	if ref := w.sys.Lookup(3, "k2", nil); !ref.Valid() {
		t.Fatalf("live-origin Lookup returned an invalid ref")
	}
	w.e.Run(w.e.Now() + 120)
}

// TestAdvertiseDeadlineDrainsVanishedAccess is the regression test for the
// pending-advertise leak: PATH and UNIQUE-PATH advertises settle only when
// their walk reaches a terminal event, so a walk frame dropped at a receiver
// (loss, partition, fault — all above the MAC, so the sender sees a
// successful send and salvation never triggers) used to leave the op in
// s.ads forever with a done callback that never fired.
// The AdvertiseTimeoutSecs deadline must settle such ops and drain the map.
func TestAdvertiseDeadlineDrainsVanishedAccess(t *testing.T) {
	for _, strat := range []Strategy{Path, UniquePath} {
		t.Run(strat.String(), func(t *testing.T) {
			w := newWorld(2, 40, Config{
				AdvertiseStrategy: strat,
				LookupStrategy:    strat,
				AdvertiseSize:     6,
				LookupSize:        6,
			})
			w.e.Run(5)

			// Drop every quorum frame at its receiver: the MAC ACKs, the
			// network layer discards, and every walk vanishes on its first
			// hop with no terminal event.
			w.net.SetLinkFaultFunc(func(_, _ int, pkt *netstack.Packet) netstack.FaultAction {
				return netstack.FaultAction{Drop: pkt.Proto == netstack.ProtoQuorum}
			})

			const ops = 5
			fired := 0
			for i := 0; i < ops; i++ {
				key := fmt.Sprintf("k%d", i)
				if ref := w.sys.Advertise(i, key, "v", func(AdvertiseResult) { fired++ }); !ref.Valid() {
					t.Fatalf("advertise %d returned invalid ref", i)
				}
			}
			if ads := len(w.sys.ads); ads != ops {
				t.Fatalf("pending ads before deadline = %d, want %d", ads, ops)
			}

			w.e.Run(w.e.Now() + w.sys.Config().AdvertiseTimeoutSecs + 5)

			if fired != ops {
				t.Fatalf("done callbacks fired = %d, want %d", fired, ops)
			}
			if lk, ads := len(w.sys.lookups), len(w.sys.ads); lk != 0 || ads != 0 {
				t.Fatalf("pending maps not drained: %d lookups, %d ads", lk, ads)
			}
			if got := w.sys.Counters().AdvertiseTimeouts; got != ops {
				t.Fatalf("AdvertiseTimeouts = %d, want %d", got, ops)
			}
		})
	}
}

// TestOpMapsDrainUnderReceiverLoss audits the op-termination paths under
// heavy receiver-side loss across every strategy mix dimension that manages
// its own settle events: after every op's timeout horizon the pending maps
// must be empty and every callback must have fired exactly once.
func TestOpMapsDrainUnderReceiverLoss(t *testing.T) {
	for _, strat := range []Strategy{Random, Path, UniquePath, Flooding, ExpandingRing} {
		t.Run(strat.String(), func(t *testing.T) {
			adv := strat
			if strat == ExpandingRing {
				adv = Flooding // EXPANDING-RING is a lookup strategy only
			}
			w := newWorld(3, 40, Config{
				AdvertiseStrategy: adv,
				LookupStrategy:    strat,
				AdvertiseSize:     6,
				LookupSize:        6,
				LookupTimeout:     10,
				Salvation:         true,
			})
			w.e.Run(5)

			// 50% receiver-side loss from a seeded stream: some frames get
			// through (exercising partial progress), many vanish.
			lrng := w.e.NewStream()
			w.net.SetLinkFaultFunc(func(_, _ int, pkt *netstack.Packet) netstack.FaultAction {
				return netstack.FaultAction{Drop: pkt.Proto == netstack.ProtoQuorum && lrng.Float64() < 0.5}
			})

			const ops = 8
			adFired, lkFired := 0, 0
			for i := 0; i < ops; i++ {
				key := fmt.Sprintf("k%d", i)
				w.sys.Advertise(i, key, "v", func(AdvertiseResult) { adFired++ })
			}
			w.e.Run(w.e.Now() + 10)
			for i := 0; i < ops; i++ {
				key := fmt.Sprintf("k%d", i)
				w.sys.Lookup(i+ops, key, func(LookupResult) { lkFired++ })
			}
			cfg := w.sys.Config()
			w.e.Run(w.e.Now() + cfg.AdvertiseTimeoutSecs + cfg.LookupTimeout + 30)

			if adFired != ops || lkFired != ops {
				t.Fatalf("callbacks fired ad=%d lk=%d, want %d each", adFired, lkFired, ops)
			}
			if lk, ads := len(w.sys.lookups), len(w.sys.ads); lk != 0 || ads != 0 {
				t.Fatalf("pending maps not drained: %d lookups, %d ads", lk, ads)
			}
		})
	}
}

// TestOpStateGraceQueue pins the op-state grace queue. However many
// operations settle, the engine holds one event for all their grace. Each
// operation's flood rounds outlive its settle by exactly opStateGraceSecs,
// two operations settled in one event included. A finished ring op still
// answers FloodCoverage inside its grace.
func TestOpStateGraceQueue(t *testing.T) {
	for _, ops := range []int{1, 400} {
		t.Run(fmt.Sprint(ops), func(t *testing.T) {
			w := newWorld(5, 60, Config{
				AdvertiseStrategy: Flooding, LookupStrategy: ExpandingRing,
				LookupTimeout: 10,
			})
			w.e.Run(5)
			base := w.e.QueueLen()

			// Nobody holds the key: every ring lookup escalates to the
			// widest ring and times out, except the first two, which are
			// settled by hand in one event before that.
			refs := make([]OpRef, ops)
			settled := make([]float64, ops)
			w.e.Schedule(0, func() {
				for i := range refs {
					i := i
					refs[i] = w.sys.Lookup(1+i%59, "absent", func(LookupResult) { settled[i] = w.e.Now() })
				}
			})
			w.e.Schedule(3, func() {
				for i := 0; i < min(2, ops); i++ {
					w.sys.completeLookup(refs[i].id, "v")
				}
			})
			w.e.Run(w.e.Now() + 40)

			s := w.sys
			if lk := len(s.lookups); lk != 0 {
				t.Fatalf("%d lookups still pending", lk)
			}
			if q := s.grace.Len(); q != ops {
				t.Fatalf("grace queue holds %d ops, want %d", q, ops)
			}
			if got := w.e.QueueLen() - base; got != 1 {
				t.Fatalf("%d ops in their grace hold %d engine events, want 1", ops, got)
			}
			if cov := s.FloodCoverage(refs[ops-1]); cov < 2 {
				t.Fatalf("FloodCoverage = %d for a finished ring lookup in its grace, want its rings", cov)
			}

			rounds := make([][]floodRound, ops)
			for i, ref := range refs {
				rounds[i] = s.floods[ref.id]
				if len(rounds[i]) == 0 {
					t.Fatalf("op %d ran no ring round", i)
				}
			}
			// held and gone report whether op i's flood rounds are all
			// present, each still its own, or all released.
			state := func(i int) (held, gone bool) {
				cur, ok := s.floods[refs[i].id]
				return ok && len(cur) == len(rounds[i]), !ok
			}
			// At each settle time t: an instant before t+grace every op that
			// settled at or after t is held, and at t+grace every op that
			// settled by t is gone.
			times := []float64{settled[0]}
			if ops > 1 {
				if settled[1] != settled[0] || settled[ops-1] <= settled[0] {
					t.Fatalf("hand-settled ops at %v and %v, timed-out op at %v", settled[0], settled[1], settled[ops-1])
				}
				times = append(times, settled[ops-1])
			}
			for _, at := range times {
				w.e.Run(at + opStateGraceSecs - 1e-9)
				for i := range refs {
					if held, _ := state(i); settled[i] >= at && !held {
						t.Fatalf("op %d (settled %v) lost its state before %v", i, settled[i], at+opStateGraceSecs)
					}
				}
				w.e.Run(at + opStateGraceSecs)
				for i := range refs {
					if _, gone := state(i); settled[i] <= at && !gone {
						t.Fatalf("op %d (settled %v) still holds state at %v", i, settled[i], at+opStateGraceSecs)
					}
				}
			}
			if cov := s.FloodCoverage(refs[ops-1]); cov != 0 {
				t.Fatalf("FloodCoverage = %d after the grace, want 0", cov)
			}
			if got := w.e.QueueLen(); got != base {
				t.Fatalf("%d engine events after every grace ended, want the %d from before", got, base)
			}
		})
	}
}

// TestOpRounds pins the one-id op model: expanding-ring rings and retry
// re-draws are flood rounds of the operation that launched them, not
// operations of their own, and a flood frame that outlives its operation's
// grace is dropped without leaving state behind.
func TestOpRounds(t *testing.T) {
	t.Run("ring", func(t *testing.T) {
		w := newWorld(8, 60, Config{
			AdvertiseStrategy: Flooding, LookupStrategy: ExpandingRing,
			LookupTimeout: 10,
		})
		w.e.Run(5)
		ref := w.sys.Lookup(3, "absent", nil)
		w.e.Run(w.e.Now() + 9) // every ring is out, the timeout not yet due

		s := w.sys
		esc := s.Counters().RingEscalations
		if esc != maxRingTTL-1 {
			t.Fatalf("lookup escalated %d times, want %d", esc, maxRingTTL-1)
		}
		if got := len(s.floods[ref.id]); got != esc+1 {
			t.Fatalf("lookup holds %d rounds after %d escalations, want %d", got, esc, esc+1)
		}
		if len(s.floods) != 1 || s.opSeq != 1 {
			t.Fatalf("%d ops hold flood rounds and %d op ids were minted, want 1 and 1", len(s.floods), s.opSeq)
		}
	})

	t.Run("retry", func(t *testing.T) {
		w := newWorld(9, 60, Config{
			AdvertiseStrategy: Flooding, LookupStrategy: Flooding,
			LookupTimeout: 5, LookupRetries: 1, RetryBackoffSecs: 1,
		})
		w.e.Run(5)
		ref := w.sys.Lookup(3, "absent", nil)
		w.e.Run(w.e.Now() + 8) // past the timeout and the backoff: the retry has flooded

		s := w.sys
		rounds := s.floods[ref.id]
		if len(rounds) != 2 || s.Counters().LookupRetries != 1 {
			t.Fatalf("retried lookup holds %d rounds after %d retries, want 2 after 1", len(rounds), s.Counters().LookupRetries)
		}
		union := map[int]bool{}
		for _, r := range rounds {
			for n := range r {
				union[n] = true
			}
		}
		if got := s.FloodCoverage(ref); got != len(union) {
			t.Fatalf("FloodCoverage = %d, want the union of the rounds, %d", got, len(union))
		}
	})

	t.Run("late frame", func(t *testing.T) {
		w := newWorld(10, 60, Config{AdvertiseStrategy: Flooding, LookupStrategy: Flooding})
		w.e.Run(5)
		s := w.sys
		ref := s.Advertise(0, "k", "v", nil)
		w.e.Run(w.e.Now() + 10 + opStateGraceSecs)
		if ads := len(s.ads); ads != 0 || len(s.floods) != 0 {
			t.Fatalf("%d ads pending and %d ops holding rounds after the grace, want none", ads, len(s.floods))
		}

		base := w.e.QueueLen()
		m := &floodMsg{Op: ref.id, Advertise: true, Key: "late", Value: "v"}
		pkt := s.newPacket(0, netstack.Broadcast, m)
		pkt.TTL = 3
		s.handleFlood(w.net.Node(1), pkt, m, 0)
		if len(s.floods) != 0 {
			t.Fatalf("a frame past its op's grace re-created flood state for %d ops", len(s.floods))
		}
		if _, ok := s.Store(1).Get("late"); ok {
			t.Fatal("a frame past its op's grace was stored")
		}
		if got := w.e.QueueLen(); got != base {
			t.Fatalf("a frame past its op's grace scheduled %d events", got-base)
		}
	})
}
