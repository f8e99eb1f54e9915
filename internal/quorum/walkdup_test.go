package quorum_test

import (
	"fmt"
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
	var arrivals []arrival
	writers := map[slot]any{} // who may write the element after this list
	seen := map[any]bool{}
	// The fault function sees every arriving frame once, before it doubles
	// it, and leaves the delivery observer to the suite.
	net.SetLinkFaultFunc(func(from, _ int, pkt *netstack.Packet) netstack.FaultAction {
		act := netstack.FaultAction{Duplicate: dup.Float64() < 0.06}
		msg, path, walk, ok := quorum.PathPayload(pkt)
		if !ok || seen[msg] {
			return act
		}
		seen[msg] = true
		arrivals = append(arrivals, arrival{live: path, was: append([]int(nil), path...), walk: walk, from: from})
		if walk {
			k := slot{&path[0], len(path)}
			if other, taken := writers[k]; taken && other != msg {
				t.Errorf("two walk messages share the slot after %v: the second delivery did not fork", path)
			}
			writers[k] = msg
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
	if lk, ad := sys.PendingOps(); lk != 0 || ad != 0 {
		t.Fatalf("operations still pending after the drain: %d lookups, %d advertises", lk, ad)
	}
}
