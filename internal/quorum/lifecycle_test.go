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
	if lk, ads := w.sys.PendingOps(); lk != 0 || ads != 0 {
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
// pending-advertise leak: PATH, UNIQUE-PATH, and RANDOM-SAMPLING advertises
// settle only when their walk reaches a terminal event, so a walk frame
// dropped at a receiver (loss, partition, fault — all above the MAC, so
// the sender sees a successful send and salvation never triggers) used to
// leave the op in s.ads forever with a done callback that never fired.
// The AdvertiseTimeoutSecs deadline must settle such ops and drain the map.
func TestAdvertiseDeadlineDrainsVanishedAccess(t *testing.T) {
	for _, strat := range []Strategy{Path, UniquePath, RandomSampling} {
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
			if _, ads := w.sys.PendingOps(); ads != ops {
				t.Fatalf("pending ads before deadline = %d, want %d", ads, ops)
			}

			w.e.Run(w.e.Now() + w.sys.Config().AdvertiseTimeoutSecs + 5)

			if fired != ops {
				t.Fatalf("done callbacks fired = %d, want %d", fired, ops)
			}
			if lk, ads := w.sys.PendingOps(); lk != 0 || ads != 0 {
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
	for _, strat := range []Strategy{Random, Path, UniquePath, Flooding, ExpandingRing, RandomSampling} {
		t.Run(strat.String(), func(t *testing.T) {
			w := newWorld(3, 40, Config{
				AdvertiseStrategy: strat,
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
			if lk, ads := w.sys.PendingOps(); lk != 0 || ads != 0 {
				t.Fatalf("pending maps not drained: %d lookups, %d ads", lk, ads)
			}
		})
	}
}
