package experiment

import (
	"fmt"
	"math"
	"math/rand"

	"probquorum/internal/analysis"
	"probquorum/internal/geom"
	"probquorum/internal/graph"
	"probquorum/internal/netstack"
	"probquorum/internal/quorum"
	"probquorum/internal/stack"
)

// Table is one figure's (or table's) data, renderable as aligned text.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// String renders the table: a "## " title line, then the header and rows
// in columns padded to their widest cell.
func (t Table) String() string {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) string {
		s := ""
		for i, c := range cells {
			s += fmt.Sprintf("%-*s  ", widths[i], c)
		}
		return s + "\n"
	}
	out := "## " + t.Title + "\n" + line(t.Header)
	for _, row := range t.Rows {
		out += line(row)
	}
	return out
}

// Profile scales an experiment between a quick sanity sweep and the paper's
// full setup.
type Profile struct {
	// Sizes are the network sizes to sweep (paper: 50–800).
	Sizes []int
	// Densities are the average degrees to sweep (paper: 7–25).
	Densities []float64
	// Seeds is the number of runs averaged per point (paper: 10).
	Seeds int
	// Stack selects fidelity for the protocol experiments.
	Stack netstack.StackKind
	// Advertisements / Lookups / LookupNodes size the workload.
	Advertisements, Lookups, LookupNodes int
	// BigN is the size used by single-size experiments (paper: 800).
	BigN int
	// WalkTrials is the number of walks per PCT data point.
	WalkTrials int
	// Parallel is the worker-pool size used by RunSweep for the
	// simulation-backed figures; 0 means runtime.GOMAXPROCS(0).
	Parallel int
}

// Quick returns a laptop-scale profile on the ideal stack.
func Quick() Profile {
	return Profile{
		Sizes:     []int{50, 100, 200},
		Densities: []float64{7, 10, 15, 25},
		Seeds:     3, Stack: netstack.StackIdeal,
		Advertisements: 30, Lookups: 150, LookupNodes: 10,
		BigN: 200, WalkTrials: 200,
	}
}

// Full returns the paper-scale profile on the SINR stack.
func Full() Profile {
	return Profile{
		Sizes:     []int{50, 100, 200, 400, 800},
		Densities: []float64{7, 10, 15, 20, 25},
		Seeds:     10, Stack: netstack.StackSINR,
		Advertisements: 100, Lookups: 1000, LookupNodes: 25,
		BigN: 800, WalkTrials: 500,
	}
}

func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
func istr(v int) string   { return fmt.Sprintf("%d", v) }
func sqrtN(n int) float64 { return math.Sqrt(float64(n)) }

// ratio is part/whole — a hit or intersection fraction of a lookup tally —
// and 0 when nothing was counted.
func ratio[T int | float64](part, whole T) float64 {
	if whole <= 0 {
		return 0
	}
	return float64(part) / float64(whole)
}

func baseScenario(p Profile, n int, seed int64) Scenario {
	return Scenario{
		Spec:           stack.Spec{N: n, Seed: seed, Link: netstack.Config{Stack: p.Stack}},
		Advertisements: p.Advertisements, Lookups: p.Lookups, LookupNodes: p.LookupNodes,
	}
}

// Fig3 renders the strategy comparison table (analytic).
func Fig3() Table {
	t := Table{
		Title:  "Fig. 3 — access strategies: asymptotic & qualitative comparison",
		Header: []string{"strategy", "accessed", "cost(general)", "cost(RGG)", "routing", "membership", "replies", "early-halt"},
	}
	for _, s := range analysis.StrategyTable() {
		t.addRow(s.Name, s.AccessedNodes, s.CostGeneral, s.CostRGG,
			fmt.Sprint(s.NeedsRouting), fmt.Sprint(s.NeedsMembership),
			s.LookupReplies, fmt.Sprint(s.EarlyHalting))
	}
	return t
}

// Fig6 renders the strategy-mix comparison table (analytic).
func Fig6() Table {
	t := Table{
		Title:  "Fig. 6 — strategy mixes at |Q|=Θ(√n) on RGGs",
		Header: []string{"advertise", "lookup", "advertise cost", "lookup cost", "topology-independent"},
	}
	for _, m := range analysis.MixTable() {
		t.addRow(m.Advertise, m.Lookup, m.AdvertiseCost, m.LookupCost, fmt.Sprint(m.TopologyIndependent))
	}
	return t
}

// Fig4 measures the random-walk partial cover time: steps per unique node
// visited, for PATH and UNIQUE-PATH, across network sizes (a,c,d) and
// densities (b).
func Fig4(p Profile, seed int64) []Table {
	rng := rand.New(rand.NewSource(seed))
	measure := func(n int, davg float64, kind graph.WalkKind, target int) float64 {
		side := geom.AreaSide(n, 200, davg)
		total, count := 0, 0
		for count < p.WalkTrials {
			g, _ := graph.NewRGG(rng, n, 200, side)
			if !g.Connected() {
				continue
			}
			for t := 0; t < 10 && count < p.WalkTrials; t++ {
				steps, ok := graph.StepsToCover(g, rng, kind, rng.Intn(n), target, 200*n)
				if ok {
					total += steps
					count++
				}
			}
		}
		return float64(total) / float64(count) / float64(target)
	}

	sizes := Table{
		Title:  "Fig. 4(a,c) — PCT: steps per unique node at |Q|=√n, d_avg=10",
		Header: []string{"n", "target", "PATH steps/unique", "UNIQUE-PATH steps/unique"},
	}
	for _, n := range p.Sizes {
		target := int(sqrtN(n))
		sizes.addRow(istr(n), istr(target),
			f2(measure(n, 10, graph.SimpleWalk, target)),
			f2(measure(n, 10, graph.SelfAvoidingWalk, target)))
	}

	nd := p.BigN / 2
	if nd < 50 {
		nd = 50
	}
	dens := Table{
		Title:  fmt.Sprintf("Fig. 4(b,d) — PCT vs density, n=%d, |Q|=√n", nd),
		Header: []string{"d_avg", "PATH steps/unique", "UNIQUE-PATH steps/unique"},
	}
	for _, d := range p.Densities {
		target := int(sqrtN(nd))
		dens.addRow(f1(d),
			f2(measure(nd, d, graph.SimpleWalk, target)),
			f2(measure(nd, d, graph.SelfAvoidingWalk, target)))
	}

	// Larger coverage targets: linearity persists (paper: PCT(n/2)≈1.3n
	// for n=100).
	big := Table{
		Title:  "Fig. 4 (large targets) — steps per unique at n=100",
		Header: []string{"coverage", "PATH steps/unique", "UNIQUE-PATH steps/unique"},
	}
	for _, frac := range []float64{0.25, 0.5} {
		n := 100
		target := int(frac * float64(n))
		big.addRow(fmt.Sprintf("%.0f%%", frac*100),
			f2(measure(n, 10, graph.SimpleWalk, target)),
			f2(measure(n, 10, graph.SelfAvoidingWalk, target)))
	}
	return []Table{sizes, dens, big}
}

// FloodCoverageOnce measures nodes covered by floods of each TTL.
func FloodCoverageOnce(p Profile, n int, davg float64, ttls []int, seed int64) []float64 {
	sc := Scenario{Spec: stack.Spec{N: n, Link: netstack.Config{AvgDegree: davg, Stack: p.Stack}}}
	out := make([]float64, len(ttls))
	for i, ttl := range ttls {
		total := 0.0
		trials := p.Seeds * 4
		for tr := 0; tr < trials; tr++ {
			cov := measureFloodCoverage(sc, ttl, seed+int64(tr*131+i))
			total += float64(cov)
		}
		out[i] = total / float64(trials)
	}
	return out
}

// measureFloodCoverage runs one flood and counts reached nodes.
func measureFloodCoverage(sc Scenario, ttl int, seed int64) int {
	sc.Seed = seed
	sc.Quorum = quorum.Config{
		AdvertiseStrategy: quorum.Flooding, LookupStrategy: quorum.Flooding,
		AdvertiseTTL: ttl, LookupTTL: ttl,
	}
	st := sc.build()
	st.Engine.Run(5)
	origin := st.Net.RandomAliveID(st.Engine.NewStream())
	ref := st.Suite.Advertise(origin, "probe", "v", nil)
	st.Engine.Run(st.Engine.Now() + 5 + 0.5*float64(ttl))
	return st.Sys.FloodCoverage(ref)
}

// Fig5 measures flooding coverage and coverage granularity vs TTL for the
// profile's sizes and densities.
func Fig5(p Profile, seed int64) []Table {
	ttls := []int{1, 2, 3, 4, 5, 6}
	header := []string{"TTL"} // shared by the coverage and granularity tables
	covBySize := make([][]float64, len(p.Sizes))
	for i, n := range p.Sizes {
		header = append(header, fmt.Sprintf("n=%d", n))
		covBySize[i] = FloodCoverageOnce(p, n, 10, ttls, seed+int64(i))
	}
	var covRows, cgRows [][]string
	for ti, ttl := range ttls {
		row := []string{istr(ttl)}
		for i := range p.Sizes {
			row = append(row, f1(covBySize[i][ti]))
		}
		covRows = append(covRows, row)
		if ti > 0 {
			cgRow := []string{istr(ttl)}
			for i := range p.Sizes {
				cgRow = append(cgRow, f2(covBySize[i][ti]/covBySize[i][ti-1]))
			}
			cgRows = append(cgRows, cgRow)
		}
	}
	tables := []Table{
		{Title: "Fig. 5(a) — flooding coverage vs TTL (d_avg=10)", Header: header, Rows: covRows},
		{Title: "Fig. 5(c) — coverage granularity CG(i)=N_i/N_{i-1}", Header: header, Rows: cgRows},
	}

	// Density sweep at a fixed medium size.
	nd := p.Sizes[len(p.Sizes)-1]
	dHeader := []string{"TTL"}
	covByDens := make([][]float64, len(p.Densities))
	for i, d := range p.Densities {
		dHeader = append(dHeader, fmt.Sprintf("d=%g", d))
		covByDens[i] = FloodCoverageOnce(p, nd, d, ttls, seed+100+int64(i))
	}
	var dRows [][]string
	for ti, ttl := range ttls {
		row := []string{istr(ttl)}
		for i := range p.Densities {
			row = append(row, f1(covByDens[i][ti]))
		}
		dRows = append(dRows, row)
	}
	tables = append(tables, Table{
		Title:  fmt.Sprintf("Fig. 5(b) — flooding coverage vs TTL, n=%d, varying density", nd),
		Header: dHeader, Rows: dRows,
	})
	return tables
}

// Fig7 renders the analytic degradation curves.
func Fig7() []Table {
	fs := []float64{0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9}
	epss := []float64{0.05, 0.1, 0.2}
	mk := func(title string, fn func(eps, f float64) float64) Table {
		header := []string{"f"}
		for _, e := range epss {
			header = append(header, fmt.Sprintf("eps=%.2f", e))
		}
		var rows [][]string
		for _, f := range fs {
			row := []string{f2(f)}
			for _, e := range epss {
				row = append(row, fmt.Sprintf("%.3f", fn(e, f)))
			}
			rows = append(rows, row)
		}
		return Table{Title: title, Header: header, Rows: rows}
	}
	return []Table{
		mk("Fig. 7(a) — failures only (|Qℓ| adjusted): 1−ε^√(1−f)", analysis.DegradationFailuresAdjusted),
		mk("Fig. 7(b) — joins only (|Qℓ| fixed): 1−ε^(1/(1+f))", analysis.DegradationJoinsFixed),
		mk("Fig. 7(c) — failures+joins: 1−ε^(1−f)", analysis.DegradationChurn),
		mk("Fig. 7 (reference) — failures only, |Qℓ| fixed: constant 1−ε", analysis.DegradationFailuresFixed),
	}
}

// Fig4Series reproduces Fig. 4's x-axis evolution: steps per unique node as
// a function of the number of unique nodes visited, for PATH and
// UNIQUE-PATH on one network size.
func Fig4Series(p Profile, seed int64) []Table {
	n := p.BigN
	rng := rand.New(rand.NewSource(seed))
	side := geom.AreaSide(n, 200, 10)
	var g *graph.Graph
	for {
		cand, _ := graph.NewRGG(rng, n, 200, side)
		if cand.Connected() {
			g = cand
			break
		}
	}
	measure := func(kind graph.WalkKind, target int) float64 {
		total, count := 0, 0
		for count < p.WalkTrials/4+5 {
			steps, ok := graph.StepsToCover(g, rng, kind, rng.Intn(n), target, 400*n)
			if ok {
				total += steps
				count++
			}
		}
		return float64(total) / float64(count) / float64(target)
	}
	series := Table{
		Title:  fmt.Sprintf("Fig. 4 (series) — steps per unique vs unique nodes visited, n=%d, d_avg=10", n),
		Header: []string{"unique nodes", "PATH steps/unique", "UNIQUE-PATH steps/unique"},
	}
	maxT := n / 2
	for t := 5; t <= maxT; t += maxT / 8 {
		series.addRow(istr(t), f2(measure(graph.SimpleWalk, t)), f2(measure(graph.SelfAvoidingWalk, t)))
	}
	return []Table{series}
}

// CrossingTime measures Theorem 5.5 empirically: the expected number of
// steps before two simple random walks first share a visited node, against
// the paper's Ω(n/log n) threshold-radius lower bound.
func CrossingTime(p Profile, seed int64) []Table {
	rng := rand.New(rand.NewSource(seed))
	t := Table{
		Title:  "Theorem 5.5 — empirical crossing time of two simple random walks (d_avg=10)",
		Header: []string{"n", "measured steps", "n/ln n (bound scale)", "steps/n"},
	}
	for _, n := range p.Sizes {
		side := geom.AreaSide(n, 200, 10)
		total, count := 0, 0
		for count < p.WalkTrials/2+10 {
			g, _ := graph.NewRGG(rng, n, 200, side)
			if !g.Connected() {
				continue
			}
			for i := 0; i < 5 && count < p.WalkTrials/2+10; i++ {
				steps, ok := graph.CrossingSteps(g, rng, graph.SimpleWalk, rng.Intn(n), rng.Intn(n), 1000*n)
				if ok {
					total += steps
					count++
				}
			}
		}
		avg := float64(total) / float64(count)
		t.addRow(istr(n), f1(avg), f1(analysis.CrossingTimeAtThreshold(n)), f2(avg/float64(n)))
	}
	return []Table{t}
}
