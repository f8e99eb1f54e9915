package quorum

import "probquorum/internal/netstack"

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
