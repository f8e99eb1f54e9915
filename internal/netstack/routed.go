package netstack

// ProtoRouted carries multihop-forwarded application data (an envelope the
// routing layer moves hop by hop). It is accounted under the application
// message counter because it carries application payloads; routing control
// traffic (RREQ/RREP/RERR) uses ProtoAODV.
const ProtoRouted ProtocolID = 4

// DeliverLocal dispatches a packet to this node's handler for its protocol,
// as if it had arrived off the air from previous hop `from`. The routing
// layer uses it to hand a multihop packet's inner payload to the
// application at the final destination. As with a one-hop delivery, the
// handler may read pkt during its upcall only; the routers hand it a view
// they reuse for the next arrival.
func (n *Node) DeliverLocal(pkt *Packet, from int) {
	if !n.Alive() {
		return
	}
	if h := n.protos[pkt.Proto]; h != nil {
		h.HandlePacket(n, pkt, from)
	}
}
