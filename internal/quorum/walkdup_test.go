package quorum_test

import (
	"fmt"
	"slices"
	"testing"

	"probquorum/internal/check"
	"probquorum/internal/netstack"
	"probquorum/internal/quorum"
	"probquorum/internal/sim"
)

// TestWalksUnderDuplicateFault runs UNIQUE-PATH advertises and lookups —
// early-halting and collect-mode ones — through a Duplicate fault episode,
// where a walk frame delivered twice forks the walk, with the invariant
// suite armed. Every walk and reply message arriving anywhere is recorded
// with a copy of its node list, and at the end:
//
//   - no two walk messages ever shared a slot to write next (same backing
//     array, same length): the second delivery of a message forked;
//   - every recorded list still reads as it did on arrival: no prefix was
//     rewritten when the walk — or its fork — moved on, so every reply's
//     Path stayed intact;
//   - each list extends its walk's origin-first history hop by hop (a walk
//     message's list ends in its sender);
//   - check.Suite.Final is clean: conservation, no leaked operation.
func TestWalksUnderDuplicateFault(t *testing.T) {
	const n = 120
	e := sim.NewEngine(5)
	net := netstack.New(e, netstack.Config{N: n, AvgDegree: 12, Stack: netstack.StackIdeal})
	sys := quorum.New(net, nil, nil, quorum.Config{
		AdvertiseStrategy: quorum.UniquePath, LookupStrategy: quorum.UniquePath,
		AdvertiseSize: 24, LookupSize: 24,
		EarlyHalt: true, Salvation: true, ReplyPathReduction: true,
		LookupTimeout: 10, AdvertiseTimeoutSecs: 20,
	})
	suite := check.NewSuite(net, sys)
	// 6 % of frames doubled: a 30-hop walk forks about twice.
	dup := e.NewStream()

	type arrival struct {
		live, was []int
		walk      bool
		from      int
	}
	type slot struct {
		base *int
		len  int
	}
	// A message pointer is reused once its send settles, so one message on
	// the air is the pointer together with the list it carried.
	type carried struct {
		msg any
		slot
	}
	var arrivals []arrival
	writers := map[slot]any{} // who may write the element after this list
	seen := map[carried]bool{}
	// The fault function sees every arriving frame once, before it doubles
	// it, and leaves the delivery observer to the suite.
	net.SetLinkFaultFunc(func(from, _ int, pkt *netstack.Packet) netstack.FaultAction {
		act := netstack.FaultAction{Duplicate: dup.Float64() < 0.06}
		msg, path, walk, ok := quorum.PathPayload(pkt)
		if !ok {
			return act
		}
		id := carried{msg, slot{&path[0], len(path)}}
		if seen[id] {
			return act
		}
		seen[id] = true
		arrivals = append(arrivals, arrival{live: path, was: append([]int(nil), path...), walk: walk, from: from})
		if walk {
			if other, taken := writers[id.slot]; taken && other != msg {
				t.Errorf("two walk messages share the slot after %v: the second delivery did not fork", path)
			}
			writers[id.slot] = msg
		}
		return act
	})

	hits, collected := 0, 0
	for i := 0; i < 12; i++ {
		i := i
		key := fmt.Sprintf("k%d", i)
		e.Schedule(float64(i), func() {
			suite.Advertise(i*7%n, key, "v", func(quorum.AdvertiseResult) {
				suite.Lookup((i*13+5)%n, key, func(r quorum.LookupResult) {
					if r.Hit {
						hits++
					}
				})
				sys.LookupCollect((i*29+11)%n, key, 5, func(r quorum.CollectResult) { collected += len(r.Values) })
			})
		})
	}
	e.Run(200)

	dupes := net.Stats().Get(netstack.CtrDupes)
	if dupes < 20 {
		t.Fatalf("only %d frames duplicated: the episode did not bite", dupes)
	}
	if hits == 0 || collected < 12 {
		t.Fatalf("workload did not run: %d hits, %d collected values", hits, collected)
	}
	walks, replies := 0, 0
	for _, a := range arrivals {
		if len(a.live) != len(a.was) {
			t.Fatalf("recorded list changed length: %v, was %v", a.live, a.was)
		}
		for i := range a.was {
			if a.live[i] != a.was[i] {
				t.Fatalf("list rewritten after arrival (walk=%v): %v, was %v", a.walk, a.live, a.was)
			}
		}
		if a.walk {
			walks++
			if last := a.was[len(a.was)-1]; last != a.from {
				t.Fatalf("walk list %v does not end in its sender %d", a.was, a.from)
			}
		} else {
			replies++
		}
	}
	if walks < 300 || replies < 20 {
		t.Fatalf("recorded %d walk and %d reply messages: too few to mean anything", walks, replies)
	}
	if rep := suite.Final(); !rep.OK() {
		t.Fatalf("invariant violations under duplication: %v", rep.Details)
	}
	if lk, ad := quorum.PendingOps(sys); lk != 0 || ad != 0 {
		t.Fatalf("operations still pending after the drain: %d lookups, %d advertises", lk, ad)
	}
}

// TestHopMessageOutlivesDelayedDelivery runs UNIQUE-PATH advertises and
// lookups — early-halting and collect-mode ones — through a link-fault Delay
// episode, in which a quarter of all arriving frames are held back 50–250 ms,
// long after the hop's send has settled. A walk or reply message belongs to
// its send and is recycled once that settles; a fault-delayed copy is the one
// delivery that can come later, so this is where a message reused for another
// hop would show. What each delayed frame carries — op, key, node list,
// unique count — is copied when it arrives, while its send is still in
// flight, and its delivery must carry exactly that. check.Suite.Final must be
// clean.
func TestHopMessageOutlivesDelayedDelivery(t *testing.T) {
	const n = 120
	e := sim.NewEngine(9)
	net := netstack.New(e, netstack.Config{N: n, AvgDegree: 12, Stack: netstack.StackIdeal})
	sys := quorum.New(net, nil, nil, quorum.Config{
		AdvertiseStrategy: quorum.UniquePath, LookupStrategy: quorum.UniquePath,
		AdvertiseSize: 24, LookupSize: 24,
		EarlyHalt: true, Salvation: true, ReplyPathReduction: true,
		LookupTimeout: 10, AdvertiseTimeoutSecs: 20,
	})
	suite := check.NewSuite(net, sys)
	jitter := e.NewStream()
	const episodeStart, episodeEnd = 3.0, 15.0

	// A frame on one link, by message identity: the copies of what it
	// carried still waiting in the delay queue.
	type frame struct {
		msg      any
		from, to int
	}
	held := map[frame][]string{}
	delayedWalks, delayedReplies := 0, 0
	net.SetLinkFaultFunc(func(from, to int, pkt *netstack.Packet) netstack.FaultAction {
		var act netstack.FaultAction
		if now := e.Now(); now >= episodeStart && now < episodeEnd && jitter.Float64() < 0.25 {
			act.Delay = 0.05 + 0.2*jitter.Float64()
		}
		if msg, content, _, ok := quorum.HopContent(pkt); ok && act.Delay > 0 {
			k := frame{msg, from, to}
			held[k] = append(held[k], content)
		}
		return act
	})
	// This replaces the suite's delivery observer; no node fails or is
	// partitioned away in this run, so the only check it made is repeated.
	net.SetDeliveryObserver(func(from, to int, pkt *netstack.Packet) {
		if !net.Alive(to) {
			t.Errorf("frame %d→%d delivered to a dead node", from, to)
		}
		msg, content, walk, ok := quorum.HopContent(pkt)
		if !ok {
			return
		}
		k := frame{msg, from, to}
		copies := held[k]
		if len(copies) == 0 {
			return // delivered on time
		}
		i := slices.Index(copies, content)
		if i < 0 {
			t.Fatalf("delayed frame %d→%d carries %s; on the air it carried %v", from, to, content, copies)
		}
		held[k] = slices.Delete(copies, i, i+1)
		if walk {
			delayedWalks++
		} else {
			delayedReplies++
		}
	})

	hits, collected := 0, 0
	for i := 0; i < 30; i++ {
		i := i
		key := fmt.Sprintf("k%d", i)
		e.Schedule(0.5*float64(i), func() {
			suite.Advertise(i*7%n, key, "v", func(quorum.AdvertiseResult) {
				suite.Lookup((i*13+5)%n, key, func(r quorum.LookupResult) {
					if r.Hit {
						hits++
					}
				})
				sys.LookupCollect((i*29+11)%n, key, 5, func(r quorum.CollectResult) { collected += len(r.Values) })
			})
		})
	}
	e.Run(200)

	if hits == 0 || collected < 30 {
		t.Fatalf("workload did not run: %d hits, %d collected values", hits, collected)
	}
	if delayedWalks < 100 || delayedReplies < 20 {
		t.Fatalf("%d walk and %d reply frames delivered late: the episode did not bite", delayedWalks, delayedReplies)
	}
	for k, copies := range held {
		if len(copies) > 0 {
			t.Fatalf("frame %d→%d never delivered after its delay: %v", k.from, k.to, copies)
		}
	}
	if rep := suite.Final(); !rep.OK() {
		t.Fatalf("invariant violations under delay: %v", rep.Details)
	}
	if lk, ad := quorum.PendingOps(sys); lk != 0 || ad != 0 {
		t.Fatalf("operations still pending after the drain: %d lookups, %d advertises", lk, ad)
	}
}
