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

// TestParseFlagsRejectsArguments: an argument that is not a flag is an
// error. The flag package stops at it, so `-lookups 10 extra -n 7` used to
// run n=100 — every flag after the stray word was ignored — and exit 0.
func TestParseFlagsRejectsArguments(t *testing.T) {
	for _, args := range [][]string{
		{"-stack", "ideal", "-lookups", "10", "-ads", "5", "extra", "-n", "7"},
		{"extra"},
		{"-n", "7", "extra"},
	} {
		if _, err := ParseFlags(args); err == nil || !strings.Contains(err.Error(), `"extra"`) {
			t.Errorf("ParseFlags(%q): err = %v, want the stray argument named", args, err)
		}
	}
	if _, err := ParseFlags([]string{"-stack", "ideal", "-n", "7"}); err != nil {
		t.Fatalf("flags alone: %v", err)
	}
}

// TestParseFlagsRejectsTTLZero: quorum.Config reads a zero TTL as "use the
// default 3", so `-ttl 0` used to run TTL-3 floods under a row keyed
// `-ttl 0`. The flag's minimum is 1, and the error names it.
func TestParseFlagsRejectsTTLZero(t *testing.T) {
	if _, err := ParseFlags([]string{"-ttl", "0"}); err == nil || !strings.Contains(err.Error(), "-ttl must be at least 1") {
		t.Fatalf("ParseFlags(-ttl 0): err = %v, want the -ttl minimum named", err)
	}
	if _, err := ParseFlags([]string{"-ttl", "1"}); err != nil {
		t.Fatalf("-ttl 1: %v", err)
	}
}

// TestParseFlagsRejectsEmptyPhasesAndOversizeQuorums: Scenario reads zero
// advertisements or lookups as "use the default", so `-ads 0` used to run
// 100 advertisements and `-lookups 0` 1 000 lookups under rows keyed by the
// zero; and a quorum larger than the network was accepted and reported
// against its impossible request. Each is an error naming the bound.
func TestParseFlagsRejectsEmptyPhasesAndOversizeQuorums(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-ads", "0"}, "-ads must be at least 1"},
		{[]string{"-lookups", "0"}, "-lookups must be at least 1"},
		{[]string{"-n", "30", "-adv-size", "500"}, "-adv-size and -lookup-size must be at most -n (30), got 500 and 0"},
		{[]string{"-n", "30", "-lookup-size", "31"}, "-adv-size and -lookup-size must be at most -n (30), got 0 and 31"},
	} {
		if _, err := ParseFlags(c.args); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("ParseFlags(%q): err = %v, want %q", c.args, err, c.want)
		}
	}
	if _, err := ParseFlags([]string{"-n", "30", "-ads", "1", "-lookups", "1", "-adv-size", "30", "-lookup-size", "30"}); err != nil {
		t.Fatalf("one advertisement and lookup, quorums of all 30 nodes: %v", err)
	}
}
