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
// is delivered one routed directMsg carrying its attempt's op id.
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

	reached := map[opID]int{} // lookup members reached, per attempt
	w.net.SetDeliveryObserver(func(_, to int, pkt *netstack.Packet) {
		inner, routed := pkt.Payload.(*netstack.Packet)
		if !routed || to != pkt.Dst {
			return
		}
		if m, ok := inner.Payload.(*directMsg); ok && !m.Advertise {
			reached[m.Op]++
		}
	})

	fires := 0
	var ref OpRef
	w.e.Schedule(0, func() {
		// Absent key: the first attempt must run its full timeout, retry,
		// and finally miss.
		ref = w.sys.Lookup(1, "absent", func(LookupResult) { fires++ })
	})
	w.e.Run(w.e.Now() + 2)

	lk := w.sys.lookups[ref.id]
	if lk == nil {
		t.Fatal("lookup not pending after dispatch")
	}
	if len(reached) != 1 || reached[ref.id] != oldSize {
		t.Fatalf("first attempt reached %v members, want old size %d under op %v", reached, oldSize, ref.id)
	}

	// Resize mid-flight, before the first attempt's timeout.
	w.sys.Resize(newSize, newSize)
	w.e.Run(w.e.Now() + 12) // past timeout + backoff: the retry has re-drawn

	if lk.finished {
		t.Fatal("lookup finished before the retry could run")
	}
	delete(reached, ref.id)
	if len(reached) != 1 {
		t.Fatalf("retry ran %d attempts, want 1: %v", len(reached), reached)
	}
	for op, got := range reached {
		if got != newSize {
			t.Fatalf("retry %v reached %d members, want new size %d", op, got, newSize)
		}
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
