//pqlint:allow nowallclock(per-figure wall-clock reporting: recorded results surface perf regressions; no simulation state depends on it)

// Command pqexp regenerates the paper's figures and tables.
//
// Usage:
//
//	pqexp [flags] <figure> [figure...]
//	pqexp [flags] all
//
// The figures table below is the whole catalogue: the paper's Fig. 3–16,
// tau (Lemma 5.6), fig4series, crt (Theorem 5.5), decay (§6.1 continuous
// churn) and chaos (fault injection under invariant checkers) make up
// "all"; run with no argument to list every name.
//
// Four tiers are deliberately not part of "all". Each prints go-bench
// metric lines after its tables for cmd/benchjson (the `make *-smoke`
// targets), runs with the invariant checkers armed, and shrinks to CI size
// with -short:
//
//   - mega: the 10k-node scale exercise (DESIGN.md §12) — SINR/DCF with the
//     cell-noise interference model, continuous churn and a fault schedule
//     live. -n overrides the node count, -shards the sharded-phase width.
//   - giga: the 100k-node tier (DESIGN.md §15) — mega with oracle neighbor
//     discovery; bit-identical results at any -shards.
//   - load: open-loop Poisson/MMPP arrivals against every strategy mix —
//     throughput, p50/p99 op latency, shed/queue saturation, load skew. Any
//     invariant violation is an error.
//   - adapt: static vs closed-loop quorum sizing under mass-join,
//     mass-failure and ramp drifts (DESIGN.md §14). Violations or leaked ops
//     are an error.
//
// By default it runs the quick profile (ideal link layer, scaled-down
// sweep). Pass -full for the paper-scale configuration on the SINR stack
// (slow: hours), or tune -stack/-seeds/-bign individually.
//
// Simulation-backed figures fan their independent (point, seed) runs out
// on a worker pool; -parallel sizes it (default: all cores). Results are
// bit-for-bit identical at any parallelism. Each figure prints its wall
// clock and the effective parallelism so recorded results surface perf
// regressions.
//
// -cpuprofile and -memprofile write pprof profiles (CPU over the whole run,
// heap after the last figure) for `go tool pprof`; see DESIGN.md §9.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"probquorum/internal/experiment"
	"probquorum/internal/netstack"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "pqexp:", err)
		os.Exit(1)
	}
}

// options is what the command line hands a figure.
type options struct {
	profile experiment.Profile
	seed    int64
	seeds   int  // -seeds as given (0 = the figure's default)
	n       int  // -n: tier node count (0 = the tier's default)
	short   bool // -short: tiers run their smoke-test horizon
}

// horizon is a tier's Horizon: its smoke-test scale under -short, else 1.
func (o options) horizon(short float64) float64 {
	if o.short {
		return short
	}
	return 1
}

// runFunc runs a figure: the tables to print and, for the tiers, the
// go-bench metric lines that follow them.
type runFunc func(o options) (tables []experiment.Table, bench []string, err error)

// figure is one runnable name.
type figure struct {
	name, alias string
	inAll       bool
	run         runFunc
}

// sweep adapts a profile-driven figure generator.
func sweep(gen func(experiment.Profile, int64) []experiment.Table) runFunc {
	return func(o options) ([]experiment.Table, []string, error) { return gen(o.profile, o.seed), nil, nil }
}

// analytic adapts a closed-form figure.
func analytic(gen func() []experiment.Table) runFunc {
	return func(options) ([]experiment.Table, []string, error) { return gen(), nil, nil }
}

var figures = []figure{
	{"fig3", "", true, analytic(func() []experiment.Table { return []experiment.Table{experiment.Fig3()} })},
	{"fig4", "", true, sweep(experiment.Fig4)},
	{"fig5", "", true, sweep(experiment.Fig5)},
	{"fig6", "", true, analytic(func() []experiment.Table { return []experiment.Table{experiment.Fig6()} })},
	{"fig7", "", true, analytic(experiment.Fig7)},
	{"fig8", "", true, sweep(experiment.Fig8)},
	{"fig9", "", true, sweep(experiment.Fig9)},
	{"fig10", "", true, sweep(experiment.Fig10)},
	{"fig11", "", true, sweep(experiment.Fig11)},
	{"fig12", "", true, sweep(experiment.Fig12)},
	{"fig13", "", true, sweep(experiment.Fig13)},
	{"fig14", "", true, sweep(experiment.Fig14)},
	{"fig15", "", true, sweep(experiment.Fig15)},
	{"fig16", "", true, sweep(experiment.Fig16)},
	{"tau", "lemma56", true, sweep(experiment.TauSweep)},
	{"fig4series", "", true, sweep(experiment.Fig4Series)},
	{"crt", "crossing", true, sweep(experiment.CrossingTime)},
	{"decay", "churn", true, sweep(experiment.FigDecay)},
	{"chaos", "faults", true, sweep(experiment.FigChaos)},
	{"mega", "", false, mega(false)},
	{"giga", "", false, mega(true)},
	{"load", "", false, runLoad},
	{"adapt", "", false, runAdapt},
}

// lookupFigure resolves a name or alias, case-insensitively.
func lookupFigure(name string) (figure, bool) {
	for _, f := range figures {
		if strings.EqualFold(name, f.name) || (f.alias != "" && strings.EqualFold(name, f.alias)) {
			return f, true
		}
	}
	return figure{}, false
}

// figureNames lists the canonical names, for error messages.
func figureNames() string {
	names := make([]string, len(figures))
	for i, f := range figures {
		names[i] = f.name
	}
	return strings.Join(names, " ")
}

func run(args []string) error {
	fs := flag.NewFlagSet("pqexp", flag.ContinueOnError)
	full := fs.Bool("full", false, "paper-scale profile (SINR stack, n up to 800, 10 seeds)")
	stack := fs.String("stack", "", "override stack: sinr | disk | ideal")
	seeds := fs.Int("seeds", 0, "override seeds per data point")
	bigN := fs.Int("bign", 0, "override the large-network size")
	seed := fs.Int64("seed", 1, "base random seed")
	parallel := fs.Int("parallel", runtime.NumCPU(), "sweep worker-pool size (independent runs in flight at once)")
	shards := fs.Int("shards", 0, "per-engine sharded-phase width for bulk route builds (0 = serial; results identical at any width)")
	n := fs.Int("n", 0, "node count for the mega/giga scale tiers (0 = the tier's default: 10000/100000)")
	short := fs.Bool("short", false, "shrink the mega/giga/load/adapt tiers to their smoke-test horizon")
	csvDir := fs.String("csv", "", "also write each table as CSV into this directory")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile covering every figure run to this file")
	memProfile := fs.String("memprofile", "", "write an allocation profile taken after all figures to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() == 0 {
		return fmt.Errorf("no figure given; try: pqexp fig10  (or: pqexp all); figures: %s", figureNames())
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "pqexp: memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // flush recently freed objects so live-heap numbers are accurate
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "pqexp: memprofile:", err)
			}
		}()
	}

	p := experiment.Quick()
	if *full {
		p = experiment.Full()
	}
	if *stack != "" {
		var err error
		if p.Stack, err = netstack.ParseStack(*stack); err != nil {
			return err
		}
	}
	if *seeds > 0 {
		p.Seeds = *seeds
	}
	if *bigN > 0 {
		p.BigN = *bigN
	}
	p.Parallel = *parallel
	p.Shards = *shards
	effective := p.Parallel
	if effective < 1 {
		effective = runtime.GOMAXPROCS(0)
	}
	opts := options{profile: p, seed: *seed, seeds: *seeds, n: *n, short: *short}

	names := fs.Args()
	if len(names) == 1 && names[0] == "all" {
		names = names[:0]
		for _, f := range figures {
			if f.inAll {
				names = append(names, f.name)
			}
		}
	}
	for _, name := range names {
		f, ok := lookupFigure(name)
		if !ok {
			return fmt.Errorf("unknown figure %q; figures: %s", name, figureNames())
		}
		start := time.Now()
		tables, bench, err := f.run(opts)
		for _, t := range tables {
			fmt.Println(t)
		}
		for _, line := range bench {
			fmt.Println(line)
		}
		if len(bench) > 0 {
			fmt.Println() // the bench lines carry the tier's wall clock
		} else {
			// Wall-clock per figure, on stdout so recorded results files
			// (e.g. results_quick.txt) surface perf regressions alongside
			// the data.
			fmt.Printf("# %s: %.2fs wall clock, parallel=%d\n\n", name, time.Since(start).Seconds(), effective)
		}
		if err != nil {
			return err
		}
		if *csvDir != "" {
			paths, err := experiment.WriteCSVFiles(*csvDir, tables)
			if err != nil {
				return err
			}
			for _, path := range paths {
				fmt.Fprintln(os.Stderr, "wrote", path)
			}
		}
	}
	return nil
}

// runLoad executes the open-loop load figure: the data table (bit-identical
// at any -parallel) and one go-bench metrics line per strategy mix. Any
// invariant violation — the checkers run armed, including the pending-op
// drain assertion — is an error, making `make load-smoke` a CI gate and not
// just a report.
func runLoad(o options) ([]experiment.Table, []string, error) {
	lc := experiment.LoadConfig{Seed: o.seed, Parallel: o.profile.Parallel, Horizon: o.horizon(0.2)}
	results := experiment.RunLoad(lc)
	var bench []string
	violations := 0
	for _, r := range results {
		bench = append(bench, r.BenchLine())
		violations += r.Report.Violations
	}
	var err error
	if violations > 0 {
		err = fmt.Errorf("load: %d invariant violations (see table)", violations)
	}
	return []experiment.Table{experiment.LoadTable(lc, results)}, bench, err
}

// runAdapt executes the adaptive-sizing chaos figure: one trajectory table
// per drift shape (bit-identical at any -parallel), then each variant's
// first violation if any and a go-bench metrics line per drift. Invariant
// violations or leaked ops — the checkers run armed, including the
// controller's resize-bounds watch — are an error, so `make adapt-smoke`
// gates CI instead of just reporting.
func runAdapt(o options) ([]experiment.Table, []string, error) {
	results := experiment.RunAdapt(experiment.AdaptFigConfig{
		Seeds: o.seeds, Seed: o.seed, Parallel: o.profile.Parallel, Horizon: o.horizon(0.2),
	})
	var tables []experiment.Table
	var notes, bench []string
	violations := 0
	leaked := 0.0
	for _, r := range results {
		tables = append(tables, r.Table())
		bench = append(bench, r.BenchLine())
		for _, v := range []experiment.AdaptVariantResult{r.Static, r.Adaptive} {
			violations += v.Violations
			leaked += v.LeakedOps
			if v.FirstViolation != "" {
				notes = append(notes, fmt.Sprintf("# %s/%s first violation: %s", r.Drift, v.Variant, v.FirstViolation))
			}
		}
	}
	var err error
	if violations > 0 || leaked > 0 {
		err = fmt.Errorf("adapt: %d invariant violations, %.0f leaked ops", violations, leaked)
	}
	return tables, append(notes, bench...), err
}

// mega executes the scale scenario at the 10k or the 100k (giga) tier: the
// human table and the go-bench metrics line (what `make mega-smoke` pipes
// into cmd/benchjson -merge).
func mega(giga bool) runFunc {
	return func(o options) ([]experiment.Table, []string, error) {
		res := experiment.RunMega(experiment.MegaConfig{
			Giga: giga, N: o.n, Seed: o.seed, Shards: o.profile.Shards, Horizon: o.horizon(0.15),
		})
		return []experiment.Table{res.Table()}, []string{res.BenchLine()}, nil
	}
}
