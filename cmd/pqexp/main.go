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
// Three tiers are deliberately not part of "all". They share one contract
// (experiment.TierConfig in; tables, the lines that follow them and an error
// out): each runs with the invariant checkers armed — a violation or a leaked
// op is an error and a nonzero exit — and shrinks to CI size with -short (the
// `make *-smoke` targets):
//
//   - mega: the 10k-node scale exercise (DESIGN.md §12, §15) — SINR/DCF with
//     the cell-noise interference model, geometric neighbor lists, cached
//     route trees, continuous churn and a fault schedule live. -n overrides
//     the node count (`-n 100000 mega` is the 100k tier). Its go-bench line
//     is what `make bench` records in BENCH.json.
//   - load: open-loop Poisson/MMPP arrivals against every strategy mix —
//     throughput, p50/p99 op latency, shed/queue saturation, load skew.
//   - adapt: static vs closed-loop quorum sizing under mass-join,
//     mass-failure and ramp drifts (DESIGN.md §14); -seeds sets the seeds
//     per cell.
//
// By default it runs the quick profile (ideal link layer, scaled-down
// sweep). Pass -full for the paper-scale configuration on the SINR stack
// (slow: hours), or tune -stack/-seeds/-bign individually.
//
// Simulation-backed figures fan their independent (point, seed) runs out
// on a worker pool; -parallel sizes it (default: all cores). Results are
// bit-for-bit identical at any parallelism. Each figure and tier ends with a
// `# name: …s wall clock` line, which the recorded-results gates ignore.
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

// options is what the command line hands a figure: the profile and base seed
// of the sweeps, and the tiers' configuration with Horizon left to the tier.
type options struct {
	profile experiment.Profile
	tier    experiment.TierConfig
	short   bool // -short: tiers run their smoke-test horizon
}

// runFunc runs a figure: the tables to print and, for the tiers, the lines
// that follow them.
type runFunc func(o options) (tables []experiment.Table, lines []string, err error)

// figure is one runnable name.
type figure struct {
	name, alias string
	inAll       bool
	run         runFunc
}

// sweep adapts a profile-driven figure generator.
func sweep(gen func(experiment.Profile, int64) []experiment.Table) runFunc {
	return func(o options) ([]experiment.Table, []string, error) { return gen(o.profile, o.tier.Seed), nil, nil }
}

// analytic adapts a closed-form figure.
func analytic(gen func() []experiment.Table) runFunc {
	return func(options) ([]experiment.Table, []string, error) { return gen(), nil, nil }
}

// tier adapts a tier, which runs at shortHorizon of its full size under -short.
func tier(run func(experiment.TierConfig) ([]experiment.Table, []string, error), shortHorizon float64) runFunc {
	return func(o options) ([]experiment.Table, []string, error) {
		if o.short {
			o.tier.Horizon = shortHorizon
		}
		return run(o.tier)
	}
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
	{"mega", "", false, tier(experiment.Mega, 0.15)},
	{"load", "", false, tier(experiment.Load, 0.2)},
	{"adapt", "", false, tier(experiment.Adapt, 0.2)},
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
	stack := fs.String("stack", "", "override stack: sinr | ideal")
	seeds := fs.Int("seeds", 0, "override seeds per data point")
	bigN := fs.Int("bign", 0, "override the large-network size")
	seed := fs.Int64("seed", 1, "base random seed")
	parallel := fs.Int("parallel", runtime.NumCPU(), "sweep worker-pool size (independent runs in flight at once)")
	n := fs.Int("n", 0, "node count for the mega scale tier (0 = its default: 10000)")
	short := fs.Bool("short", false, "shrink the mega/load/adapt tiers to their smoke-test horizon")
	csvDir := fs.String("csv", "", "also write each table as CSV into this directory")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile covering every figure run to this file")
	memProfile := fs.String("memprofile", "", "write an allocation profile taken after all figures to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() == 0 {
		return fmt.Errorf("no figure given; try: pqexp fig10  (or: pqexp all); figures: %s", figureNames())
	}
	for _, f := range []struct {
		name string
		v    int
	}{{"n", *n}, {"seeds", *seeds}, {"bign", *bigN}} {
		if f.v < 0 {
			return fmt.Errorf("-%s must not be negative, got %d", f.name, f.v)
		}
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
	effective := p.Parallel
	if effective < 1 {
		effective = runtime.GOMAXPROCS(0)
	}
	opts := options{profile: p, short: *short, tier: experiment.TierConfig{
		Seed: *seed, Seeds: *seeds, N: *n, Parallel: p.Parallel,
	}}

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
		tables, lines, err := f.run(opts)
		for _, t := range tables {
			fmt.Println(t)
		}
		for _, line := range lines {
			fmt.Println(line)
		}
		fmt.Printf("# %s: %.2fs wall clock, parallel=%d\n\n", name, time.Since(start).Seconds(), effective)
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
