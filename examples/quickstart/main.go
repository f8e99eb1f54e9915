// Quickstart: build a simulated ad hoc network, publish a mapping to a
// probabilistic advertise quorum, and retrieve it with a UNIQUE-PATH lookup
// quorum — the paper's favoured asymmetric mix.
package main

import (
	"fmt"

	"probquorum"
)

func main() {
	// 100 nodes, average degree 10, static, fast ideal link layer.
	c := probquorum.NewCluster(probquorum.ClusterConfig{Nodes: 100, Seed: 42})

	fmt.Printf("cluster: %d nodes, quorum sizes |Qa|=%d |Qℓ|=%d (miss bound %.3f)\n",
		c.N(), 20, 12, probquorum.NonIntersectProb(100, 20, 12))

	// Node 3 publishes where the printer is.
	ad := c.AdvertiseWait(3, "printer", "room-217")
	fmt.Printf("advertise: %d members had stored it when it reported done (requested %d)\n", ad.Placed, ad.Requested)

	// Node 42, far away, looks it up.
	res := c.LookupWait(42, "printer")
	if res.Hit {
		fmt.Printf("lookup: hit! printer is at %q (latency %.0f ms)\n",
			res.Value, res.Latency*1000)
	} else {
		fmt.Println("lookup: miss (probabilistic quorums intersect with probability ≈0.9)")
	}

	// A lookup for something never advertised times out into a miss.
	res = c.LookupWait(7, "scanner")
	fmt.Printf("lookup for absent key: hit=%v (expected false)\n", res.Hit)

	fmt.Printf("total messages: %d app + %d routing\n", c.Messages(), c.RoutingMessages())
}
