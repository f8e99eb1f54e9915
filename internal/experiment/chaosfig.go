package experiment

import (
	"fmt"

	"probquorum/internal/faults"
)

// chaosN is the network size the chaos figures run at: large enough for
// meaningful √n quorums, small enough that the ≥50-schedule sweep stays
// fast on the ideal stack.
const chaosN = 60

// chaosSeverities is the fault-severity axis of the sweep.
var chaosSeverities = []float64{0.2, 0.4, 0.6, 0.8, 1.0}

// chaosSchedulesPerSeverity is how many independent randomized fault
// schedules run at each severity (5 × 11 = 55 schedules total, each with
// its own seed and its own invariant-checker suite).
const chaosSchedulesPerSeverity = 11

// FigChaos generates the chaos-harness report: intersection probability
// and read staleness per phase (pre-fault / during-fault / post-heal)
// against the 1−ε bound across fault severities, the recovery-mechanism
// comparison under a heal-after-partition schedule, and the fault-pipeline
// counters. Every run has the invariant checkers armed; the violations
// column must read 0.
func FigChaos(p Profile, seed int64) []Table {
	bySeverity := make([]ChaosResult, len(chaosSeverities))
	var scs []ChaosScenario
	for _, sev := range chaosSeverities {
		for s := 0; s < chaosSchedulesPerSeverity; s++ {
			scs = append(scs, ChaosScenario{
				N: chaosN, Seed: seed + int64(len(scs))*101,
				Severity: sev,
			})
		}
	}
	results := runJobs(len(scs), p.Parallel, func(i int) ChaosResult { return RunChaos(scs[i]) })
	for i := range chaosSeverities {
		lo := i * chaosSchedulesPerSeverity
		bySeverity[i] = mergeChaos(results[lo : lo+chaosSchedulesPerSeverity])
	}
	return []Table{
		chaosSeverityTable(bySeverity),
		chaosRecoveryTable(p, seed),
		chaosCounterTable(bySeverity),
	}
}

func chaosSeverityTable(bySeverity []ChaosResult) Table {
	bound := 1 - chaosEpsilon
	var rows [][]string
	for i, sev := range chaosSeverities {
		r := bySeverity[i]
		staleFrac := ratio(r.Report.StaleReads+r.Report.MissedReads, r.Report.Reads)
		rows = append(rows, []string{
			f2(sev), istr(r.Runs),
			f2(r.Pre.IntersectRatio()),
			f2(r.During.IntersectRatio()),
			f2(r.Post.IntersectRatio()),
			f2(bound),
			f2(staleFrac),
			istr(r.Report.Violations),
		})
	}
	return Table{
		Title: fmt.Sprintf("Chaos — intersection by phase vs fault severity, n=%d, ε=%.2f, %d randomized schedules",
			chaosN, chaosEpsilon, len(chaosSeverities)*chaosSchedulesPerSeverity),
		Header: []string{"severity", "runs", "pre", "during", "post-heal", "bound 1−ε", "stale/missed reads", "violations"},
		Rows:   rows,
	}
}

// chaosRecoveryScenarios builds the three recovery variants of the §6.1
// burst comparison (recoveryNames: none, lookup retry/backoff, retry +
// re-advertise) under the same deterministic worst-case schedule: a
// geometric 2-way partition spanning most of the fault phase, healing
// inside it.
func chaosRecoveryScenarios(seed int64) []ChaosScenario {
	base := ChaosScenario{N: chaosN, Seed: seed}
	base.Schedule = []faults.Episode{{
		Kind: faults.Partition, Start: chaosFaultSpanSecs * 0.1,
		Duration: chaosFaultSpanSecs * 0.6, Parts: 2,
	}}

	retry := base
	retry.LookupRetries = 2
	retry.RetryBackoffSecs = 0.5

	full := retry
	full.ReadvertiseSecs = chaosFaultSpanSecs / 4
	return []ChaosScenario{base, retry, full}
}

func chaosRecoveryTable(p Profile, seed int64) Table {
	variants := chaosRecoveryScenarios(seed)
	seeds := p.Seeds
	if seeds < 1 {
		seeds = 1
	}
	var scs []ChaosScenario
	for _, v := range variants {
		for s := 0; s < seeds; s++ {
			v := v
			v.Seed += int64(s) * 13
			scs = append(scs, v)
		}
	}
	results := runJobs(len(scs), p.Parallel, func(i int) ChaosResult { return RunChaos(scs[i]) })
	var rows [][]string
	for i, name := range recoveryNames {
		r := mergeChaos(results[i*seeds : (i+1)*seeds])
		rows = append(rows, []string{
			name,
			f2(r.During.HitRatio()), f2(r.During.IntersectRatio()),
			f2(r.Post.HitRatio()), f2(r.Post.IntersectRatio()),
			istr(r.Report.Violations),
		})
	}
	return Table{
		Title: fmt.Sprintf("Chaos — recovery after a healed partition, n=%d, %d seeds per variant",
			chaosN, seeds),
		Header: []string{"recovery", "during hit", "during intersect", "post hit", "post intersect", "violations"},
		Rows:   rows,
	}
}

func chaosCounterTable(bySeverity []ChaosResult) Table {
	var rows [][]string
	for i, sev := range chaosSeverities {
		r := bySeverity[i]
		rows = append(rows, []string{
			f2(sev),
			fmt.Sprint(r.Dupes), fmt.Sprint(r.Reorders),
			fmt.Sprint(r.PartitionDrops), fmt.Sprint(r.FaultDrops),
			istr(r.Report.StaleReads), istr(r.Report.MissedReads),
		})
	}
	return Table{
		Title:  "Chaos — fault-pipeline counters by severity (summed across schedules)",
		Header: []string{"severity", "dupes", "reorders", "partition drops", "fault drops", "stale reads", "missed reads"},
		Rows:   rows,
	}
}
