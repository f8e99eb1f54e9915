package quorum

import (
	"fmt"

	"probquorum/internal/netstack"
)

// PendingOps reports how many lookups and advertises are still registered
// in s's pending maps: zero once a run has drained.
func PendingOps(s *System) (lookups, ads int) { return len(s.lookups), len(s.ads) }

// PathPayload exposes, to the external tests, the node list a quorum packet
// carries: a walk's visited list or a reply's reverse path (the live slice,
// not a copy), with the message's identity and whether it is a walk. ok is
// false for every other payload.
func PathPayload(pkt *netstack.Packet) (msg any, path []int, walk, ok bool) {
	switch m := pkt.Payload.(type) {
	case *walkMsg:
		return m, m.Visited, true, true
	case *replyMsg:
		if m.Path != nil {
			return m, m.Path, false, true
		}
	}
	return nil, nil, false, false
}

// HopContent renders what a walk or reply hop message carries now — op,
// key, node list and, for a walk, the unique count, for a reply the value
// and position — with the message's identity and whether it is a walk. ok is
// false for every other payload.
func HopContent(pkt *netstack.Packet) (msg any, content string, walk, ok bool) {
	switch m := pkt.Payload.(type) {
	case *walkMsg:
		if m.walkHeader == nil {
			return m, "walk message on the free list", true, true
		}
		return m, fmt.Sprintf("walk %v %q visited=%v unique=%d", m.Op, m.Key, m.Visited, m.Unique), true, true
	case *replyMsg:
		if m.Path != nil {
			return m, fmt.Sprintf("reply %v %q=%q path=%v idx=%d", m.Op, m.Key, m.Value, m.Path, m.Idx), false, true
		}
	}
	return nil, "", false, false
}
