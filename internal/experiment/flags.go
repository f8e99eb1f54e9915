package experiment

import (
	"flag"
	"fmt"
	"math"
	"reflect"
	"strings"

	"probquorum/internal/netstack"
	"probquorum/internal/quorum"
	"probquorum/internal/stack"
)

// ParseFlags reads a scenario from pqsim's flags: the scenario they name and
// the number of seeds to average it over. It is the one reader of a
// scenario's flags — pqsim's command line and SpotRuns go through it — and an
// out-of-range value is an error "-x must …", returned before anything runs.
func ParseFlags(args []string) (Point, error) {
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
		return Point{}, err
	}
	// The flag package stops at the first argument that is not a flag; what
	// follows it would be dropped without a word.
	if fs.NArg() > 0 {
		return Point{}, fmt.Errorf("unexpected argument %q: a scenario takes flags only", fs.Arg(0))
	}
	for _, f := range []struct {
		name   string
		v, min int
	}{
		{"n", *n, 1}, {"seeds", *nSeeds, 1}, {"adv-size", *advSize, 0}, {"lookup-size", *lkSize, 0},
		{"ttl", *ttl, 1}, {"ads", *ads, 1}, {"lookups", *lookups, 1},
	} {
		if f.v < f.min {
			return Point{}, fmt.Errorf("-%s must be at least %d, got %d", f.name, f.min, f.v)
		}
	}
	if *advSize > *n || *lkSize > *n {
		return Point{}, fmt.Errorf("-adv-size and -lookup-size must be at most -n (%d), got %d and %d", *n, *advSize, *lkSize)
	}
	if !(*churn >= 0 && *churn <= 1) {
		return Point{}, fmt.Errorf("-churn must be in [0, 1], got %v", *churn)
	}
	if !(*density > 0) || math.IsInf(*density, 1) {
		return Point{}, fmt.Errorf("-density must be positive and finite, got %v", *density)
	}
	if !(*speed >= 0) || math.IsInf(*speed, 1) {
		return Point{}, fmt.Errorf("-speed must be non-negative and finite, got %v", *speed)
	}

	adv, err := parseStrategy(*advStr)
	if err != nil {
		return Point{}, err
	}
	lk, err := parseStrategy(*lkStr)
	if err != nil {
		return Point{}, err
	}
	kind, err := netstack.ParseStack(*stackStr)
	if err != nil {
		return Point{}, err
	}

	sc := Scenario{
		Spec: stack.Spec{
			N: *n, Seed: *seed, OracleRouting: *oracle, SpeedMax: *speed,
			Link: netstack.Config{AvgDegree: *density, Stack: kind},
		},
		Advertisements: *ads, Lookups: *lookups,
		FailFraction: *churn, JoinFraction: *churn,
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

	return Point{Scenario: sc, Seeds: *nSeeds}, nil
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

// FlagTables runs the scenario each argument list names (read by ParseFlags,
// all of them before the first run) on a pool of `parallel` workers and
// renders the results as two tables with a row per list, keyed by its flags:
// the outcome and message metrics, then every field of quorum.Counters
// (summed over seeds), one column each, so a counter added to the struct
// joins the table by itself. pqsim prints its one scenario with it, the spot
// figure its eight.
func FlagTables(title string, args [][]string, parallel int) ([]Table, error) {
	pts := make([]Point, len(args))
	for i, a := range args {
		var err error
		if pts[i], err = ParseFlags(a); err != nil {
			return nil, err
		}
	}
	metrics := Table{Title: title + " — outcomes and messages per op", Header: []string{"flags", "mix", "hit ratio", "intersection",
		"reply drops", "adv msgs/op", "+routing", "lookup msgs/op", "+routing",
		"placed", "of requested", "hit latency (s)", "invariant breaches"}}
	counters := Table{Title: title + " — quorum counters, summed over seeds", Header: []string{"flags"}}
	ct := reflect.TypeOf(quorum.Counters{})
	for i := 0; i < ct.NumField(); i++ {
		counters.Header = append(counters.Header, ct.Field(i).Name)
	}
	f3 := func(v float64) string { return fmt.Sprintf("%.3f", v) }
	for i, r := range RunSweep(pts, parallel) {
		flags, q := strings.Join(args[i], " "), pts[i].Scenario.Quorum
		metrics.Rows = append(metrics.Rows, []string{flags,
			fmt.Sprintf("%v x %v", q.AdvertiseStrategy, q.LookupStrategy),
			f3(r.HitRatio), f3(r.IntersectRatio), f3(r.ReplyDropRatio),
			f1(r.AdvertiseAppMsgs), f1(r.AdvertiseRoutingMsgs), f1(r.LookupAppMsgs), f1(r.LookupRoutingMsgs),
			f1(r.AvgPlaced), istr(q.AdvertiseSize), f3(r.AvgLatency), istr(r.Violations)})
		row, cv := []string{flags}, reflect.ValueOf(r.Counters)
		for j := 0; j < cv.NumField(); j++ {
			row = append(row, fmt.Sprint(cv.Field(j)))
		}
		counters.Rows = append(counters.Rows, row)
	}
	return []Table{metrics, counters}, nil
}

// SpotRuns are the spot scenarios, each as the pqsim flags that reproduce its
// rows: the paper's §8 stack (802.11 DCF over the cumulative-SINR radio,
// heartbeat neighbor discovery, AODV unless -oracle) that the quick profile's
// ideal-stack figures never run, under mobility, local repair with overhearing,
// RANDOM-OPT, and RANDOM advertise at n=400 over AODV and over the oracle
// router. RANDOM × UNIQUE-PATH with default sizes unless the flags say
// otherwise; two seeds each.
var SpotRuns = []string{
	"-seeds 2 -stack sinr -n 100",
	"-seeds 2 -stack sinr -n 100 -speed 2",
	"-seeds 2 -stack sinr -n 200",
	"-seeds 2 -stack sinr -n 100 -oracle",
	"-seeds 2 -stack sinr -n 100 -speed 5 -repair -overhear",
	"-seeds 2 -stack sinr -n 100 -adv random-opt -lookup random-opt",
	"-seeds 2 -stack sinr -n 400",
	"-seeds 2 -stack sinr -n 400 -oracle",
}

// FigSpot runs SpotRuns on a pool of `parallel` workers. A row is `pqsim
// <flags>` exactly, so nothing else of the profile or the base seed applies.
func FigSpot(parallel int) ([]Table, error) {
	args := make([][]string, len(SpotRuns))
	for i, s := range SpotRuns {
		args[i] = strings.Fields(s)
	}
	return FlagTables("Spot runs of the §8 stack (SINR, DCF, AODV), a row per `pqsim <flags>`", args, parallel)
}
