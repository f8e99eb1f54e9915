package experiment

import (
	"fmt"
	"math"

	"probquorum/internal/analysis"
	"probquorum/internal/membership"
	"probquorum/internal/quorum"
)

// mixConfig builds a quorum configuration for a strategy mix with the
// paper's default sizes (|Qa| = 2√n, |Qℓ| = 1.15√n) and techniques enabled.
func mixConfig(n int, adv, lk quorum.Strategy) quorum.Config {
	return quorum.Config{
		AdvertiseStrategy: adv, LookupStrategy: lk,
		AdvertiseSize: quorum.AdvertiseSizeDefault(n),
		LookupSize:    quorum.LookupSizeFor(n, 0.9),
		AdvertiseTTL:  3, LookupTTL: 3,
		EarlyHalt: true, Salvation: true, ReplyPathReduction: true,
		LookupTimeout: 15,
	}
}

// The figure generators below all follow the same shape: every sweep point
// is added together with the closure that turns its averaged result into a
// table row, then one run executes them all over the profile's worker pool
// and hands the results back in point order.

// points is a figure's sweep under construction.
type points struct {
	pts  []Point
	then []func(Result)
}

// add appends sc, averaged over seeds runs; then receives its result.
func (ps *points) add(sc Scenario, seeds int, then func(Result)) {
	ps.pts = append(ps.pts, Point{Scenario: sc, Seeds: seeds})
	ps.then = append(ps.then, then)
}

// run executes the sweep and feeds each point's closure, in point order.
func (ps *points) run(p Profile) {
	results := RunSweep(Sweep{Points: ps.pts}, p.Parallel)
	for i, r := range results {
		ps.then[i](r)
	}
}

// addRow appends one row of cells.
func (t *Table) addRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// mobileLabel names the two mobility modes the paired figures compare.
func mobileLabel(mobile bool) string {
	if mobile {
		return "mobile 0.5–2 m/s"
	}
	return "static"
}

// Fig8 measures the cost of RANDOM advertise (a,b) and the hit ratio of
// RANDOM lookup (c) on static networks at d_avg = 10.
func Fig8(p Profile, seed int64) []Table {
	cost := Table{
		Title:  "Fig. 8(a,b) — RANDOM advertise cost per request (static, d_avg=10)",
		Header: []string{"n", "|Qa|", "msgs", "+routing", "total"},
	}
	hit := Table{
		Title:  "Fig. 8(c) — RANDOM lookup hit ratio vs |Qℓ| (advertise 2√n)",
		Header: []string{"n", "|Qℓ|", "hit ratio", "Lemma 5.2 bound"},
	}
	var sw points
	for _, n := range p.Sizes {
		for _, f := range []float64{0.5, 1.0, 1.5, 2.0, 2.5} {
			qa := int(math.Round(f * sqrtN(n)))
			sc := baseScenario(p, n, seed)
			sc.Lookups, sc.LookupNodes = 1, 1 // advertise-phase study
			sc.Quorum = mixConfig(n, quorum.Random, quorum.Random)
			// The paper's plateau past 2√n exists because "membership holds
			// only 2√n ids" (§8.1); the stack would otherwise grow the view.
			sc.Quorum.AdvertiseSize = min(qa, membership.DefaultViewSize(n))
			sw.add(sc, p.Seeds, func(r Result) {
				cost.addRow(istr(n), fmt.Sprintf("%.1f√n=%d", f, qa),
					f1(r.AdvertiseAppMsgs), f1(r.AdvertiseRoutingMsgs),
					f1(r.AdvertiseAppMsgs+r.AdvertiseRoutingMsgs))
			})
		}
	}
	for _, n := range p.Sizes {
		for _, f := range []float64{0.5, 0.75, 1.0, 1.15, 1.5, 2.0} {
			ql := int(math.Round(f * sqrtN(n)))
			if ql < 1 {
				ql = 1
			}
			sc := baseScenario(p, n, seed+7)
			sc.Quorum = mixConfig(n, quorum.Random, quorum.Random)
			sc.Quorum.LookupSize = ql
			qa := sc.Quorum.AdvertiseSize
			sw.add(sc, p.Seeds, func(r Result) {
				hit.addRow(istr(n), fmt.Sprintf("%.2f√n=%d", f, ql),
					f2(r.HitRatio), f2(1-quorum.NonIntersectProb(n, qa, ql)))
			})
		}
	}
	sw.run(p)
	return []Table{cost, hit}
}

// Fig9 measures the RANDOM-OPT lookup: hit ratio and message cost vs the
// number of routed targets, static and mobile.
func Fig9(p Profile, seed int64) []Table {
	n := p.BigN
	lnN := int(math.Ceil(math.Log(float64(n))))
	tables := make([]Table, 2)
	var sw points
	for mi, mobile := range []bool{false, true} {
		t := &tables[mi]
		t.Title = fmt.Sprintf("Fig. 9 — RANDOM-OPT lookup, n=%d, %s", n, mobileLabel(mobile))
		t.Header = []string{"targets X", "hit ratio", "msgs/lookup", "routing/lookup"}
		for _, x := range []int{1, 2, lnN / 2, lnN, 2 * lnN} {
			if x < 1 {
				continue
			}
			sc := baseScenario(p, n, seed+11)
			if mobile {
				sc.SpeedMax = 2
			}
			sc.Quorum = mixConfig(n, quorum.Random, quorum.RandomOpt)
			sc.Quorum.RandomOptTargets = x
			sw.add(sc, p.Seeds, func(r Result) {
				t.addRow(istr(x), f2(r.HitRatio), f1(r.LookupAppMsgs), f1(r.LookupRoutingMsgs))
			})
		}
	}
	sw.run(p)
	return tables
}

// Fig10 measures the UNIQUE-PATH lookup under walking-speed mobility: hit
// ratio 0.9 at |Qℓ| ≈ 1.15√n and message cost below |Qℓ|.
func Fig10(p Profile, seed int64) []Table {
	t := Table{
		Title:  "Fig. 10 — RANDOM advertise × UNIQUE-PATH lookup (mobile 0.5–2 m/s)",
		Header: []string{"n", "target |Qℓ|", "hit ratio", "msgs/lookup", "msgs<|Qℓ|"},
	}
	var sw points
	for _, n := range p.Sizes {
		for _, f := range []float64{0.5, 0.75, 1.0, 1.15, 1.5, 2.0} {
			ql := int(math.Round(f * sqrtN(n)))
			if ql < 2 {
				ql = 2
			}
			sc := baseScenario(p, n, seed+13)
			sc.SpeedMax = 2
			sc.Quorum = mixConfig(n, quorum.Random, quorum.UniquePath)
			sc.Quorum.LookupSize = ql
			sw.add(sc, p.Seeds, func(r Result) {
				t.addRow(istr(n), fmt.Sprintf("%.2f√n=%d", f, ql),
					f2(r.HitRatio), f1(r.LookupAppMsgs),
					fmt.Sprint(r.LookupAppMsgs < float64(ql)+1))
			})
		}
	}
	sw.run(p)
	return []Table{t}
}

// Fig11 measures the FLOODING lookup vs TTL, static and mobile.
func Fig11(p Profile, seed int64) []Table {
	tables := make([]Table, 2)
	var sw points
	for mi, mobile := range []bool{false, true} {
		t := &tables[mi]
		t.Title = fmt.Sprintf("Fig. 11 — RANDOM advertise × FLOODING lookup, %s", mobileLabel(mobile))
		t.Header = []string{"n", "TTL", "hit ratio", "msgs/lookup"}
		for _, n := range p.Sizes {
			for _, ttl := range []int{1, 2, 3, 4} {
				sc := baseScenario(p, n, seed+17)
				if mobile {
					sc.SpeedMax = 2
				}
				sc.Quorum = mixConfig(n, quorum.Random, quorum.Flooding)
				sc.Quorum.LookupTTL = ttl
				sw.add(sc, p.Seeds, func(r Result) {
					t.addRow(istr(n), istr(ttl), f2(r.HitRatio), f1(r.LookupAppMsgs))
				})
			}
		}
	}
	sw.run(p)
	return tables
}

// Fig12 measures the symmetric UNIQUE-PATH × UNIQUE-PATH mix: hit ratio vs
// the combined walk coverage (paper: 0.9 needs ≈ n/2 combined at n=800).
func Fig12(p Profile, seed int64) []Table {
	n := p.BigN
	t := Table{
		Title:  fmt.Sprintf("Fig. 12 — UNIQUE-PATH × UNIQUE-PATH, n=%d (static)", n),
		Header: []string{"|Qa|=|Qℓ|", "combined", "combined/n", "hit ratio", "msgs/lookup"},
	}
	var sw points
	for _, frac := range []float64{0.06, 0.1, 0.15, 0.21, 0.25, 0.3} {
		q := int(frac * float64(n))
		if q < 2 {
			q = 2
		}
		sc := baseScenario(p, n, seed+19)
		sc.Quorum = mixConfig(n, quorum.UniquePath, quorum.UniquePath)
		sc.Quorum.AdvertiseSize = q
		sc.Quorum.LookupSize = q
		sw.add(sc, p.Seeds, func(r Result) {
			t.addRow(istr(q), istr(2*q), fmt.Sprintf("%.3f", float64(2*q)/float64(n)),
				f2(r.HitRatio), f1(r.LookupAppMsgs))
		})
	}
	sw.run(p)
	return []Table{t}
}

// mobilityHopDelay is the fixed per-hop latency used by the fast-mobility
// experiments on the ideal stack: ~80 ms of queueing/channel access per
// hop, so a full walk-and-reply round trip spans enough wall-clock time for
// links recorded early in the walk to drift out of range at VANET speeds —
// the effect Fig. 13 isolates. On the SINR stack contention produces this
// latency and the MAC adds none, but the knob still acts there: stack.Build
// raises AODV's NodeTraversalTime to twice it on every stack (DESIGN.md §11).
const mobilityHopDelay = 0.08

// figSpeeds is the fast-mobility sweep's max speeds in m/s.
var figSpeeds = []float64{2, 5, 10, 20}

// fastMobility is the Fig. 13/14 scenario: RANDOM × UNIQUE-PATH at n=BigN
// under waypoint mobility up to speed, reply-path local repair as given.
func fastMobility(p Profile, seed int64, speed float64, repair bool) Scenario {
	sc := baseScenario(p, p.BigN, seed)
	sc.SpeedMax = speed
	sc.Link.IdealHopDelay = mobilityHopDelay
	sc.Quorum = mixConfig(p.BigN, quorum.Random, quorum.UniquePath)
	sc.Quorum.ReplyLocalRepair = repair
	return sc
}

// Fig13 measures fast mobility *without* reply-path repair: the hit ratio
// degrades with speed while the raw intersection probability stays flat —
// the gap is reply loss.
func Fig13(p Profile, seed int64) []Table {
	t := Table{
		Title:  fmt.Sprintf("Fig. 13 — fast mobility WITHOUT reply-path repair, n=%d", p.BigN),
		Header: []string{"max speed m/s", "hit ratio", "intersection prob", "reply drop ratio"},
	}
	var sw points
	for _, speed := range figSpeeds {
		sw.add(fastMobility(p, seed+23, speed, false), p.Seeds, func(r Result) {
			t.addRow(f1(speed), f2(r.HitRatio), f2(r.IntersectRatio), f2(r.ReplyDropRatio))
		})
	}
	sw.run(p)
	return []Table{t}
}

// Fig14 measures fast mobility *with* reply-path local repair (a–d), the
// larger advertise quorum variant (e), and churn resilience (f).
func Fig14(p Profile, seed int64) []Table {
	n := p.BigN
	repair := Table{
		Title:  fmt.Sprintf("Fig. 14(a–d) — fast mobility WITH reply-path local repair, n=%d", n),
		Header: []string{"max speed m/s", "hit ratio", "intersection prob", "msgs/lookup", "msgs+routing/lookup", "repairs"},
	}
	bigQ := Table{
		Title:  "Fig. 14(e) — advertise |Q|=3√n under mobility",
		Header: []string{"max speed m/s", "hit ratio"},
	}
	var sw points
	for _, speed := range figSpeeds { // (a–d): repair on
		sw.add(fastMobility(p, seed+29, speed, true), p.Seeds, func(r Result) {
			repair.addRow(f1(speed), f2(r.HitRatio), f2(r.IntersectRatio),
				f1(r.LookupAppMsgs), f1(r.LookupAppMsgs+r.LookupRoutingMsgs),
				istr(r.Counters.LocalRepairs+r.Counters.FullRouteRepairs))
		})
	}
	for _, speed := range figSpeeds { // (e): |Qa| = 3√n
		sc := fastMobility(p, seed+31, speed, true)
		sc.Quorum.AdvertiseSize = int(math.Round(3 * sqrtN(n)))
		sw.add(sc, p.Seeds, func(r Result) { bigQ.addRow(f1(speed), f2(r.HitRatio)) })
	}
	sw.run(p)
	return []Table{repair, bigQ, fig14f(p, seed)}
}

// fig14f measures the intersection probability under churn (fail + join
// between the phases) against the Section 6.1 analysis.
func fig14f(p Profile, seed int64) Table {
	n := p.BigN
	eps := 0.1
	qa, ql := quorum.SizeForEpsilon(n, eps, 1)
	t := Table{
		Title:  fmt.Sprintf("Fig. 14(f) — intersection under churn, n=%d, d_avg=15, initial 1−ε=0.9", n),
		Header: []string{"churn fraction f", "hit ratio", "analysis 1−ε^(1−f)"},
	}
	var sw points
	for _, f := range []float64{0, 0.1, 0.2, 0.3, 0.4, 0.5} {
		sc := baseScenario(p, n, seed+37)
		sc.Link.AvgDegree = 15 // the paper's churn setup keeps the net connected
		sc.Quorum = mixConfig(n, quorum.Random, quorum.UniquePath)
		sc.Quorum.AdvertiseSize, sc.Quorum.LookupSize = qa, ql
		sc.FailFraction, sc.JoinFraction = f, f
		sc.AdjustLookupSize = true
		sw.add(sc, p.Seeds, func(r Result) {
			t.addRow(f2(f), f2(r.HitRatio), f2(analysis.DegradationChurn(eps, f)))
		})
	}
	sw.run(p)
	return t
}

// Fig15 compares the three lookup strategies on the hit-ratio-vs-messages
// plane (RANDOM advertise everywhere).
func Fig15(p Profile, seed int64) []Table {
	n := p.BigN
	t := Table{
		Title:  fmt.Sprintf("Fig. 15 — lookup strategies: hit ratio vs messages, n=%d, RANDOM advertise 2√n", n),
		Header: []string{"strategy", "param", "hit ratio", "msgs/lookup", "routing/lookup"},
	}
	var sw points
	add := func(seedOff int64, lk quorum.Strategy, param string, tune func(*quorum.Config)) {
		sc := baseScenario(p, n, seed+seedOff)
		sc.Quorum = mixConfig(n, quorum.Random, lk)
		tune(&sc.Quorum)
		sw.add(sc, p.Seeds, func(r Result) {
			t.addRow(lk.String(), param, f2(r.HitRatio), f1(r.LookupAppMsgs), f1(r.LookupRoutingMsgs))
		})
	}
	for _, f := range []float64{0.5, 1.0, 1.15, 1.5} {
		ql := int(math.Round(f * sqrtN(n)))
		add(41, quorum.UniquePath, fmt.Sprintf("|Q|=%d", ql), func(c *quorum.Config) { c.LookupSize = ql })
	}
	for _, ttl := range []int{1, 2, 3, 4} {
		add(43, quorum.Flooding, fmt.Sprintf("TTL=%d", ttl), func(c *quorum.Config) { c.LookupTTL = ttl })
	}
	lnN := int(math.Ceil(math.Log(float64(n))))
	for _, x := range []int{1, 2, lnN, 2 * lnN} {
		add(47, quorum.RandomOpt, fmt.Sprintf("X=%d", x), func(c *quorum.Config) { c.RandomOptTargets = x })
	}
	sw.run(p)
	return []Table{t}
}

// Fig16 regenerates the summary table: per-mix advertise and lookup costs
// at intersection ≈ 0.9, static and mobile.
func Fig16(p Profile, seed int64) []Table {
	n := p.BigN
	type mix struct {
		name     string
		adv, lk  quorum.Strategy
		sizeTune func(*quorum.Config)
	}
	mixes := []mix{
		{"RANDOM × RANDOM", quorum.Random, quorum.Random, nil},
		{"RANDOM × RANDOM-OPT", quorum.Random, quorum.RandomOpt, nil},
		{"RANDOM × UNIQUE-PATH", quorum.Random, quorum.UniquePath, nil},
		{"RANDOM × FLOODING", quorum.Random, quorum.Flooding, func(c *quorum.Config) { c.LookupTTL = 3 }},
		{"UNIQUE-PATH × UNIQUE-PATH", quorum.UniquePath, quorum.UniquePath, func(c *quorum.Config) {
			q := int(float64(n) / 4.7)
			c.AdvertiseSize, c.LookupSize = q, q
		}},
	}
	t := Table{
		Title:  fmt.Sprintf("Fig. 16 — summary of strategy mixes, n=%d, d_avg=10, target intersection 0.9", n),
		Header: []string{"mix", "net", "adv msgs", "adv routing", "hit lookup msgs", "miss lookup msgs", "lookup routing", "hit ratio"},
	}
	// Each (mix, net) cell needs two runs: the main measurement and the
	// paper's "cost of a lookup miss" variant (same mix, absent keys,
	// single seed). Both are points of the one sweep; the second renders
	// the row.
	var sw points
	for _, m := range mixes {
		for _, mobile := range []bool{false, true} {
			sc := baseScenario(p, n, seed+53)
			label := "static"
			if mobile {
				label = "mobile"
				sc.SpeedMax = 2
			}
			sc.Quorum = mixConfig(n, m.adv, m.lk)
			if m.sizeTune != nil {
				m.sizeTune(&sc.Quorum)
			}
			missSc := sc
			missSc.LookupAbsentKeys = true
			missSc.Lookups = p.Lookups / 2
			var r Result
			sw.add(sc, p.Seeds, func(main Result) { r = main })
			sw.add(missSc, 1, func(miss Result) {
				t.addRow(m.name, label,
					f1(r.AdvertiseAppMsgs), f1(r.AdvertiseRoutingMsgs),
					f1(r.LookupAppMsgs), f1(miss.LookupAppMsgs), f1(r.LookupRoutingMsgs),
					f2(r.HitRatio))
			})
		}
	}
	sw.run(p)
	return []Table{t}
}

// TauSweep validates Lemma 5.6 empirically (Section 5.4): for a fixed
// intersection target and lookup:advertise frequency ratio tau, it sweeps
// the size ratio |Qℓ|/|Qa| (holding |Qa|·|Qℓ| ≈ n·ln(1/ε)) and measures the
// total message cost of the whole workload. The measured minimum should sit
// near the analytic optimum ratio Cost_a/(τ·Cost_ℓ).
func TauSweep(p Profile, seed int64) []Table {
	n := p.BigN
	eps := 0.1
	var tables []Table
	for _, tau := range []float64{2, 10} {
		ads := 12
		lookups := int(float64(ads) * tau)
		t := Table{
			Title: fmt.Sprintf(
				"Section 5.4 — total workload cost vs size ratio |Qℓ|/|Qa|, τ=%g", tau),
			Header: []string{"|Qℓ|/|Qa|", "|Qa|", "|Qℓ|", "total msgs (workload)", "hit ratio"},
		}
		bestCost, bestRatio := math.Inf(1), 0.0
		var costA, costL float64
		var sw points
		for _, ratio := range []float64{0.25, 0.5, 1, 2, 4, 8, 16} {
			qa, ql := quorum.SizeForEpsilon(n, eps, ratio)
			if qa >= n || ql >= n/2 {
				continue
			}
			sc := baseScenario(p, n, seed+61)
			sc.Advertisements, sc.Lookups = ads, lookups
			sc.LookupNodes = 8
			sc.Quorum = mixConfig(n, quorum.Random, quorum.UniquePath)
			sc.Quorum.AdvertiseSize, sc.Quorum.LookupSize = qa, ql
			sw.add(sc, p.Seeds, func(r Result) {
				total := float64(ads)*(r.AdvertiseAppMsgs+r.AdvertiseRoutingMsgs) +
					float64(lookups)*(r.LookupAppMsgs+r.LookupRoutingMsgs)
				if total < bestCost {
					bestCost, bestRatio = total, ratio
				}
				if ratio == 1 {
					// Per-node access costs measured at the symmetric point,
					// feeding Lemma 5.6's prediction.
					costA = (r.AdvertiseAppMsgs + r.AdvertiseRoutingMsgs) / float64(qa)
					costL = (r.LookupAppMsgs + r.LookupRoutingMsgs) / float64(ql)
				}
				t.addRow(fmt.Sprintf("%.3f", ratio), istr(qa), istr(ql), f1(total), f2(r.HitRatio))
			})
		}
		sw.run(p)
		predicted := math.NaN()
		if costA > 0 && costL > 0 {
			predicted = quorum.OptimalSizeRatio(tau, costA, costL)
		}
		t.addRow(fmt.Sprintf("measured min @ %.3f", bestRatio), "", "", f1(bestCost), "")
		t.addRow(fmt.Sprintf("Lemma 5.6 predicts @ %.1f", predicted),
			"", "", fmt.Sprintf("(Cost_a=%.1f, Cost_ℓ=%.1f)", costA, costL), "")
		tables = append(tables, t)
	}
	return tables
}
