package experiment

import (
	"slices"
	"strings"
	"testing"
)

// TestRandomAdvertisePlacesOverAODV: at n=400 over AODV (the spot run `-stack
// sinr -n 400`: RANDOM advertise × UNIQUE-PATH lookup, two seeds), a RANDOM
// advertise places at least three quarters of its |Qa| members. Its fan-out
// is one route discovery naming every member; one discovery per member
// flooded the network so hard that barely a third were placed.
func TestRandomAdvertisePlacesOverAODV(t *testing.T) {
	if testing.Short() {
		t.Skip("a 400-node SINR run over AODV, two seeds")
	}
	i := slices.Index(SpotRuns, "-seeds 2 -stack sinr -n 400")
	if i < 0 {
		t.Fatal("no `-stack sinr -n 400` spot run")
	}
	pt, err := ParseFlags(strings.Fields(SpotRuns[i]))
	if err != nil {
		t.Fatal(err)
	}
	r := RunSweep([]Point{pt}, 0)[0]
	size := pt.Scenario.Quorum.AdvertiseSize
	if want := 0.75 * float64(size); r.AvgPlaced < want {
		t.Fatalf("placed %.1f of %d members per advertise, want at least %.1f", r.AvgPlaced, size, want)
	}
	if r.Violations != 0 {
		t.Fatalf("%d invariant breaches", r.Violations)
	}
}
