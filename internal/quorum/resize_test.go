package quorum

import (
	"testing"

	"probquorum/internal/netstack"
)

// TestResizeMidFlightLookupRetry pins the interaction the adaptation
// controller introduces: an op drawn under the old |Qℓ| whose retry fires
// after a resize must re-draw at the new size (dispatch reads the live
// config), settle exactly once, and leave nothing pending past the horizon.
// The draw is read off the network: every member of a RANDOM lookup quorum
// is delivered one routed directMsg carrying the lookup's op id, and the
// attempts are told apart by the retry instant.
func TestResizeMidFlightLookupRetry(t *testing.T) {
	const oldSize, newSize = 6, 12
	w := newWorld(7, 60, Config{
		AdvertiseStrategy: Random, LookupStrategy: Random,
		AdvertiseSize: oldSize, LookupSize: oldSize,
		LookupTimeout:    10,
		LookupRetries:    1,
		RetryBackoffSecs: 1,
	})
	w.e.Run(5) // let membership warm up

	var ref OpRef
	var retryAt float64
	var reached [2]int // lookup members reached by the first attempt and by the retry
	w.net.SetDeliveryObserver(func(_, to int, pkt *netstack.Packet) {
		inner, routed := pkt.Payload.(*netstack.Packet)
		if !routed || to != pkt.Dst {
			return
		}
		if m, ok := inner.Payload.(*directMsg); ok && !m.Advertise {
			if m.Op != ref.id {
				t.Errorf("member reached under op %v, want the lookup's %v", m.Op, ref.id)
			}
			if w.e.Now() < retryAt {
				reached[0]++
			} else {
				reached[1]++
			}
		}
	})

	fires := 0
	w.e.Schedule(0, func() {
		// Absent key: the first attempt must run its full timeout, retry,
		// and finally miss.
		cfg := w.sys.Config()
		retryAt = w.e.Now() + cfg.LookupTimeout + cfg.RetryBackoffSecs
		ref = w.sys.Lookup(1, "absent", func(LookupResult) { fires++ })
	})
	w.e.Run(w.e.Now() + 2)

	lk := w.sys.lookups[ref.id]
	if lk == nil {
		t.Fatal("lookup not pending after dispatch")
	}
	if reached != [2]int{oldSize, 0} {
		t.Fatalf("first attempt reached %d members (%d after the retry instant), want old size %d", reached[0], reached[1], oldSize)
	}

	// Resize mid-flight, before the first attempt's timeout.
	w.sys.Resize(newSize, newSize)
	w.e.Run(w.e.Now() + 12) // past timeout + backoff: the retry has re-drawn

	if w.sys.lookups[ref.id] != lk {
		t.Fatal("lookup finished before the retry could run")
	}
	if reached != [2]int{oldSize, newSize} {
		t.Fatalf("attempts reached %v members, want %v: the retry at the new size", reached, [2]int{oldSize, newSize})
	}

	w.e.Run(w.e.Now() + 60) // drain the retry's timeout
	if fires != 1 {
		t.Fatalf("lookup resolved %d times, want exactly 1", fires)
	}
	if lkLeaked, adLeaked := w.sys.LeakedOps(); lkLeaked+adLeaked > 0 {
		t.Fatalf("leaked ops after drain: %d lookups, %d advertises", lkLeaked, adLeaked)
	}
	if w.sys.Counters().Resizes != 1 {
		t.Fatalf("Resizes counter = %d, want 1", w.sys.Counters().Resizes)
	}
}

// TestResizeMidFlightAdvertise checks the advertise side: an advertise
// in flight across a resize settles exactly once against the member count
// it was drawn with, and the next advertise requests the new size.
func TestResizeMidFlightAdvertise(t *testing.T) {
	const oldSize, newSize = 4, 9
	w := newWorld(11, 60, Config{
		AdvertiseStrategy: Random, LookupStrategy: Random,
		AdvertiseSize: oldSize, LookupSize: oldSize,
		LookupTimeout: 10,
	})
	w.e.Run(5)

	fires := 0
	var first AdvertiseResult
	w.e.Schedule(0, func() {
		w.sys.Advertise(2, "k", "v", func(r AdvertiseResult) { first = r; fires++ })
		// Resize immediately after dispatch, while every contact is in
		// flight.
		w.sys.Resize(newSize, newSize)
	})
	w.e.Run(w.e.Now() + 120)

	if fires != 1 {
		t.Fatalf("advertise resolved %d times, want exactly 1", fires)
	}
	if first.Requested != oldSize {
		t.Fatalf("in-flight advertise requested %d, want the pre-resize size %d", first.Requested, oldSize)
	}

	second := w.advertise(2, "k2", "v2")
	if second.Requested != newSize {
		t.Fatalf("post-resize advertise requested %d, want %d", second.Requested, newSize)
	}
	if lkLeaked, adLeaked := w.sys.LeakedOps(); lkLeaked+adLeaked > 0 {
		t.Fatalf("leaked ops after drain: %d lookups, %d advertises", lkLeaked, adLeaked)
	}
}
