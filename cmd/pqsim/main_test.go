package main

import (
	"strings"
	"testing"

	"probquorum/internal/experiment"
)

// TestRunRejectsOutOfRangeFlags: every out-of-range flag is an error naming
// it, before anything runs. -churn -0.5 used to build a smaller network than
// -n asked for (the negative join fraction shrank the stack, the area stayed
// sized for -n), and -n 0 died in netstack.
func TestRunRejectsOutOfRangeFlags(t *testing.T) {
	for _, tc := range []struct {
		args []string
		flag string
	}{
		{[]string{"-n", "60", "-churn", "-0.5"}, "-churn"},
		{[]string{"-churn", "1.5"}, "-churn"},
		{[]string{"-n", "0"}, "-n"},
		{[]string{"-seeds", "-1"}, "-seeds"},
		{[]string{"-adv-size", "-1"}, "-adv-size"},
		{[]string{"-lookup-size", "-1"}, "-lookup-size"},
		{[]string{"-ttl", "-1"}, "-ttl"},
		{[]string{"-ads", "-1"}, "-ads"},
		{[]string{"-lookups", "-1"}, "-lookups"},
		{[]string{"-density", "-10"}, "-density"},
	} {
		if err := run(tc.args); err == nil || !strings.HasPrefix(err.Error(), tc.flag+" must") {
			t.Errorf("pqsim %v: err = %v, want %s rejected", tc.args, err, tc.flag)
		}
	}
}

// TestRandomAdvertisePlacesOverAODV: at n=400 over AODV (the `-stack sinr -n
// 400` spot run: RANDOM advertise × UNIQUE-PATH lookup, two seeds), a
// RANDOM advertise places at least three quarters of its |Qa| members. Its
// fan-out is one route discovery naming every member; one discovery per
// member flooded the network so hard that barely a third were placed.
func TestRandomAdvertisePlacesOverAODV(t *testing.T) {
	if testing.Short() {
		t.Skip("a 400-node SINR run over AODV, two seeds")
	}
	sc, seeds, err := parse([]string{"-seeds", "2", "-stack", "sinr", "-n", "400"})
	if err != nil {
		t.Fatal(err)
	}
	r := experiment.RunSeeds(sc, seeds)
	if want := 0.75 * float64(sc.Quorum.AdvertiseSize); r.AvgPlaced < want {
		t.Fatalf("placed %.1f of %d members per advertise, want at least %.1f", r.AvgPlaced, sc.Quorum.AdvertiseSize, want)
	}
	if r.Violations != 0 {
		t.Fatalf("%d invariant breaches", r.Violations)
	}
}
