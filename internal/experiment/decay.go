package experiment

import (
	"fmt"

	"probquorum/internal/analysis"
	"probquorum/internal/quorum"
)

// The decay experiment validates §6.1's closed form for quorum degradation
// under churn: after a fraction f of the network has failed and been
// replaced by fresh joiners, the miss probability of a RANDOM×RANDOM
// biquorum sized for ε grows to ε^(1−f). Unlike Fig. 14(f), which applies
// churn as one event between the phases, this experiment runs the
// continuous Poisson process over the lookup phase and buckets lookup
// outcomes by issue time, so the measured intersection probability can be
// plotted *over time* against 1−ε^(1−f(t)).

// decayEpsilon is the designed miss probability the quorums are sized for.
const decayEpsilon = 0.1

// decayBuckets is how many time buckets slice the lookup phase.
const decayBuckets = 6

// decayScenario builds a continuous-churn run that churns (fails and
// replaces) targetF·n nodes over the lookup phase, with decay buckets on.
// Membership refreshes every 5 s so views track the live set closely —
// §6.1's closed forms assume membership samples the current population;
// the residual decay is then the irrecoverable replica loss ε^(1−f).
func decayScenario(p Profile, n int, seed int64, targetF float64) Scenario {
	sc := baseScenario(p, n, seed)
	sc.Link.AvgDegree = 15
	qa, ql := quorum.SizeForEpsilon(n, decayEpsilon, 1)
	sc.Quorum = mixConfig(n, quorum.Random, quorum.Random)
	sc.Quorum.AdvertiseSize = qa
	sc.Quorum.LookupSize = ql
	sc.Members.RefreshSecs = 5
	sc.fillDefaults()
	span := sc.lookupSpanSecs()
	rate := targetF * float64(n) / span
	sc.ChurnFailRate, sc.ChurnJoinRate = rate, rate
	sc.DecayBucketSecs = span / decayBuckets
	return sc
}

// FigDecay generates the §6.1 decay-over-time validation (one table) and
// the burst-recovery comparison (two tables): intersection probability per
// time bucket against the analytic 1−ε^(1−f(t)) at three churn fractions,
// then hit ratio per bucket with and without the recovery mechanisms
// (lookup retry/backoff and periodic re-advertise) around a churn burst.
func FigDecay(p Profile, seed int64) []Table {
	results := sweepResults(p, burstScenarios(p, p.BigN, seed))
	return []Table{decayTable(p, seed), recoveryTable(results), recoveryCounters(results)}
}

func decayTable(p Profile, seed int64) Table {
	n := p.BigN
	t := Table{
		Title: fmt.Sprintf("Decay — intersection over time under continuous churn, n=%d, ε=%.2f, %d seeds",
			n, decayEpsilon, p.Seeds),
		Header: []string{"target f", "t (s)", "measured f(t)", "intersect", "analysis 1−ε^(1−f)", "hit"},
	}
	var sw points
	for _, f := range []float64{0.1, 0.2, 0.3} {
		sw.add(decayScenario(p, n, seed+53, f), p.Seeds, func(r Result) {
			for _, d := range r.Decay {
				t.addRow(f2(f), f1(d.T), f2(d.FailedFrac),
					f2(d.IntersectRatio()),
					f2(analysis.DegradationChurn(decayEpsilon, d.FailedFrac)),
					f2(d.HitRatio()))
			}
		})
	}
	sw.run(p)
	return t
}

// recoveryNames labels burstScenarios' three configurations.
var recoveryNames = []string{"baseline", "retries", "retries+re-advertise"}

// burstScenarios returns three variants of the same churn burst — ~25% of
// the network fails (and is replaced) inside one bucket starting a third of
// the way into the lookup phase — with escalating recovery machinery:
// none, lookup retry/backoff only, and retry plus periodic re-advertise.
// Retries recover individual lookups (each re-draw multiplies the miss
// probability by ε^(1−f) again); re-advertise repairs the advertise quorums
// themselves, so first attempts stop missing at all.
func burstScenarios(p Profile, n int, seed int64) []Scenario {
	base := decayScenario(p, n, seed+59, 0)
	span := base.lookupSpanSecs()
	burst := span / decayBuckets
	rate := 0.25 * float64(n) / burst
	base.ChurnFailRate, base.ChurnJoinRate = rate, rate
	base.ChurnStartSecs = span / 3
	base.ChurnDurationSecs = burst

	retry := base
	retry.Quorum.LookupRetries = 2
	retry.Quorum.RetryBackoffSecs = 0.5

	full := retry
	full.Quorum.ReadvertiseSecs = span / decayBuckets
	return []Scenario{base, retry, full}
}

func recoveryTable(results []Result) Table {
	var rows [][]string
	for bi, d := range results[0].Decay {
		row := []string{f1(d.T)}
		for _, res := range results {
			row = append(row, f2(res.Decay[bi].HitRatio()))
		}
		for _, res := range results {
			row = append(row, f2(res.Decay[bi].IntersectRatio()))
		}
		rows = append(rows, row)
	}
	return Table{
		Title: "Recovery — per-bucket hit/intersect around a 25% churn burst: " +
			"none vs retries vs retries+re-advertise",
		Header: []string{"t (s)",
			"hit (base)", "hit (retry)", "hit (full)",
			"intersect (base)", "intersect (retry)", "intersect (full)"},
		Rows: rows,
	}
}

func recoveryCounters(results []Result) Table {
	var rows [][]string
	for i, res := range results {
		rows = append(rows, []string{
			recoveryNames[i],
			istr(res.Counters.LookupRetries), istr(res.Counters.Readvertises),
			istr(res.Counters.DeadOriginOps),
			f1(res.ChurnFails), f1(res.ChurnJoins),
			f2(res.HitRatio),
		})
	}
	return Table{
		Title:  "Recovery — mechanism counters (summed over seeds; rates averaged)",
		Header: []string{"config", "lookup retries", "re-advertises", "dead-origin ops", "fails/run", "joins/run", "hit ratio"},
		Rows:   rows,
	}
}
