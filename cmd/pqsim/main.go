// Command pqsim runs one quorum-system scenario and prints its metrics.
//
// Example:
//
//	pqsim -n 200 -adv random -lookup unique-path -speed 2 -seeds 3
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"probquorum/internal/experiment"
	"probquorum/internal/netstack"
	"probquorum/internal/quorum"
	"probquorum/internal/stack"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "pqsim:", err)
		os.Exit(1)
	}
}

func parseStrategy(s string) (quorum.Strategy, error) {
	switch strings.ToLower(s) {
	case "random":
		return quorum.Random, nil
	case "random-opt", "randomopt":
		return quorum.RandomOpt, nil
	case "path":
		return quorum.Path, nil
	case "unique-path", "uniquepath":
		return quorum.UniquePath, nil
	case "flooding", "flood":
		return quorum.Flooding, nil
	default:
		return 0, fmt.Errorf("unknown strategy %q (random, random-opt, path, unique-path, flooding)", s)
	}
}

func run(args []string) error {
	sc, seeds, err := parse(args)
	if err != nil {
		return err
	}
	r := experiment.RunSeeds(sc, seeds)
	fmt.Printf("mix                 %v x %v\n", sc.Quorum.AdvertiseStrategy, sc.Quorum.LookupStrategy)
	fmt.Printf("hit ratio           %.3f\n", r.HitRatio)
	fmt.Printf("intersection prob   %.3f\n", r.IntersectRatio)
	fmt.Printf("reply drop ratio    %.3f\n", r.ReplyDropRatio)
	fmt.Printf("advertise msgs/op   %.1f (+%.1f routing)\n", r.AdvertiseAppMsgs, r.AdvertiseRoutingMsgs)
	fmt.Printf("lookup msgs/op      %.1f (+%.1f routing)\n", r.LookupAppMsgs, r.LookupRoutingMsgs)
	fmt.Printf("avg placed          %.1f of %d requested\n", r.AvgPlaced, sc.Quorum.AdvertiseSize)
	fmt.Printf("avg hit latency     %.3fs\n", r.AvgLatency)
	fmt.Printf("counters            %+v\n", r.Counters)
	fmt.Printf("invariant breaches  %d\n", r.Violations)
	return nil
}

// parse turns pqsim's flags into the scenario it runs and the number of
// seeds to average it over.
func parse(args []string) (sc experiment.Scenario, seeds int, err error) {
	fs := flag.NewFlagSet("pqsim", flag.ContinueOnError)
	n := fs.Int("n", 100, "number of nodes")
	density := fs.Float64("density", 10, "average node degree")
	advStr := fs.String("adv", "random", "advertise strategy")
	lkStr := fs.String("lookup", "unique-path", "lookup strategy")
	advSize := fs.Int("adv-size", 0, "advertise quorum size (default 2sqrt(n))")
	lkSize := fs.Int("lookup-size", 0, "lookup quorum size (default 1.15sqrt(n))")
	ttl := fs.Int("ttl", 3, "flooding TTL")
	speed := fs.Float64("speed", 0, "max waypoint speed m/s (0 = static)")
	stackStr := fs.String("stack", "sinr", "stack: sinr | ideal")
	ads := fs.Int("ads", 50, "advertisements")
	lookups := fs.Int("lookups", 300, "lookups")
	nSeeds := fs.Int("seeds", 1, "seeds to average")
	seed := fs.Int64("seed", 1, "base seed")
	repair := fs.Bool("repair", false, "enable reply-path local repair")
	oracle := fs.Bool("oracle", false, "use zero-overhead oracle routing (isolates route-establishment cost)")
	overhear := fs.Bool("overhear", false, "enable promiscuous overhearing (Section 7.2)")
	churn := fs.Float64("churn", 0, "fraction of nodes failed+joined between phases")
	if err := fs.Parse(args); err != nil {
		return sc, 0, err
	}
	for _, f := range []struct {
		name   string
		v, min int
	}{
		{"n", *n, 1}, {"seeds", *nSeeds, 1}, {"adv-size", *advSize, 0}, {"lookup-size", *lkSize, 0},
		{"ttl", *ttl, 0}, {"ads", *ads, 0}, {"lookups", *lookups, 0},
	} {
		if f.v < f.min {
			return sc, 0, fmt.Errorf("-%s must be at least %d, got %d", f.name, f.min, f.v)
		}
	}
	if !(*churn >= 0 && *churn <= 1) {
		return sc, 0, fmt.Errorf("-churn must be in [0, 1], got %v", *churn)
	}
	if !(*density > 0) {
		return sc, 0, fmt.Errorf("-density must be positive, got %v", *density)
	}

	adv, err := parseStrategy(*advStr)
	if err != nil {
		return sc, 0, err
	}
	lk, err := parseStrategy(*lkStr)
	if err != nil {
		return sc, 0, err
	}
	kind, err := netstack.ParseStack(*stackStr)
	if err != nil {
		return sc, 0, err
	}

	sc = experiment.Scenario{
		Spec: stack.Spec{
			N: *n, Seed: *seed, OracleRouting: *oracle,
			Link: netstack.Config{AvgDegree: *density, Stack: kind},
		},
		Advertisements: *ads, Lookups: *lookups,
		FailFraction: *churn, JoinFraction: *churn,
	}
	if *speed > 0 {
		sc.SpeedMax = *speed
	}

	qc := quorum.DefaultConfig(*n)
	qc.AdvertiseStrategy, qc.LookupStrategy = adv, lk
	qc.AdvertiseTTL, qc.LookupTTL = *ttl, *ttl
	qc.ReplyLocalRepair = *repair
	qc.Overhearing = *overhear
	if *advSize > 0 {
		qc.AdvertiseSize = *advSize
	}
	if *lkSize > 0 {
		qc.LookupSize = *lkSize
	}
	sc.Quorum = qc

	return sc, *nSeeds, nil
}
