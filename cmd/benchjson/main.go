// Command benchjson converts `go test -bench -benchmem` output into a
// machine-readable JSON benchmark trajectory (BENCH.json).
//
// Usage:
//
//	go test -bench=. -benchmem -run='^$' . > bench.out
//	benchjson -out BENCH.json < bench.out
//	pqexp mega | benchjson -merge -out BENCH.json
//	benchjson -compare BENCH.base.json -out BENCH.json -threshold 15
//
// With -compare, stdin is ignored: the -out file holds the NEW results and
// the -compare file the baseline. Benchmarks present in both are compared on
// ns/op and the peak-heap-B metric; any regression beyond -threshold percent
// is reported and the exit status is non-zero, so CI can gate (or soft-fail)
// on performance drift. Benchmarks present on only one side are noted but
// never fail the comparison, and ns/op is skipped ("procs differ") when the
// two sides were measured at different GOMAXPROCS — that is a different
// host, not a regression; peak-heap-B is still compared.
//
// Every input line is passed through to stdout unchanged, so benchjson can
// sit at the end of a pipe without hiding the human-readable report. The
// JSON records, per benchmark: name, GOMAXPROCS suffix, iterations, ns/op,
// B/op, allocs/op, and any custom b.ReportMetric units (hit-ratio,
// msgs/lookup, ...). The goos/goarch/cpu header lines are captured so a
// committed BENCH.json identifies the machine the trajectory came from.
//
// With -merge, an existing output file is read first and the new results
// are folded in by benchmark name (new results replace same-named entries,
// others are kept), so separately produced suites — the go-test benchmarks
// and the pqexp mega metrics line — accumulate into one BENCH.json.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"
)

// benchResult is one parsed benchmark line.
type benchResult struct {
	Name        string             `json:"name"`
	Procs       int                `json:"procs,omitempty"`
	Iterations  int64              `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  *float64           `json:"bytes_per_op,omitempty"`
	AllocsPerOp *float64           `json:"allocs_per_op,omitempty"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// report is the top-level BENCH.json document.
type report struct {
	Goos       string        `json:"goos,omitempty"`
	Goarch     string        `json:"goarch,omitempty"`
	Pkg        string        `json:"pkg,omitempty"`
	CPU        string        `json:"cpu,omitempty"`
	Benchmarks []benchResult `json:"benchmarks"`
}

func main() {
	out := flag.String("out", "BENCH.json", "output JSON file (with -compare: the NEW results file)")
	merge := flag.Bool("merge", false, "fold results into an existing -out file by benchmark name instead of replacing it")
	compare := flag.String("compare", "", "baseline JSON file; compare -out against it instead of reading stdin")
	threshold := flag.Float64("threshold", 10, "with -compare: regression tolerance in percent for ns/op and peak-heap-B")
	flag.Parse()
	if *compare != "" {
		regressed, err := runCompare(os.Stdout, *compare, *out, *threshold)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		if regressed {
			os.Exit(2)
		}
		return
	}
	if err := run(os.Stdin, os.Stdout, *out, *merge); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

// peakHeapMetric is the custom b.ReportMetric unit the mega/giga scenarios
// emit for their end-of-run heap high-water mark; it is compared alongside
// ns/op because the scale-out work cares about memory as much as time.
const peakHeapMetric = "peak-heap-B"

// runCompare loads the baseline and new reports and prints one line per
// comparable quantity. It returns regressed=true if any common benchmark got
// slower (ns/op) or fatter (peak-heap-B) by more than thresholdPct percent.
// Improvements and within-tolerance drift never trip it, and a quantity
// missing from either side is skipped — baselines predating a metric must
// not fail the first run that adds it.
func runCompare(w io.Writer, basePath, newPath string, thresholdPct float64) (bool, error) {
	base, err := loadReport(basePath)
	if err != nil {
		return false, err
	}
	cur, err := loadReport(newPath)
	if err != nil {
		return false, err
	}
	baseByName := make(map[string]benchResult, len(base.Benchmarks))
	for _, b := range base.Benchmarks {
		baseByName[b.Name] = b
	}
	regressed := false
	compared := 0
	for _, nb := range cur.Benchmarks {
		ob, ok := baseByName[nb.Name]
		if !ok {
			fmt.Fprintf(w, "new     %s (no baseline)\n", nb.Name)
			continue
		}
		compared++
		if op, np := procsOf(ob), procsOf(nb); op != np {
			fmt.Fprintf(w, "skipped %s ns/op: procs differ (%d -> %d)\n", nb.Name, op, np)
		} else {
			regressed = compareQuantity(w, nb.Name, "ns/op", ob.NsPerOp, nb.NsPerOp, thresholdPct) || regressed
		}
		if obv, nbv := ob.Metrics[peakHeapMetric], nb.Metrics[peakHeapMetric]; obv > 0 && nbv > 0 {
			regressed = compareQuantity(w, nb.Name, peakHeapMetric, obv, nbv, thresholdPct) || regressed
		}
	}
	if compared == 0 {
		return false, fmt.Errorf("no common benchmarks between %s and %s", basePath, newPath)
	}
	if regressed {
		fmt.Fprintf(w, "FAIL: regression beyond %.0f%% tolerance\n", thresholdPct)
	} else {
		fmt.Fprintf(w, "ok: %d benchmarks within %.0f%% tolerance\n", compared, thresholdPct)
	}
	return regressed, nil
}

// procsOf is the GOMAXPROCS a result was measured at. go test (and pqexp's
// bench lines) omit the "-N" name suffix at 1, so an absent value means 1.
func procsOf(b benchResult) int {
	if b.Procs == 0 {
		return 1
	}
	return b.Procs
}

// compareQuantity prints one comparison line and reports whether the change
// is a regression beyond the tolerance (higher is worse for both ns/op and
// peak-heap-B).
func compareQuantity(w io.Writer, name, unit string, oldVal, newVal float64, thresholdPct float64) bool {
	if oldVal <= 0 {
		return false
	}
	deltaPct := (newVal - oldVal) / oldVal * 100
	bad := deltaPct > thresholdPct
	verdict := "ok     "
	if bad {
		verdict = "REGRESS"
	}
	fmt.Fprintf(w, "%s %s %s %.6g -> %.6g (%+.1f%%)\n", verdict, name, unit, oldVal, newVal, deltaPct)
	return bad
}

// loadReport reads a benchjson report from disk.
func loadReport(path string) (report, error) {
	var rep report
	data, err := os.ReadFile(path)
	if err != nil {
		return rep, err
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		return rep, fmt.Errorf("%s is not a benchjson report: %w", path, err)
	}
	return rep, nil
}

func run(in io.Reader, echo io.Writer, outPath string, merge bool) error {
	rep := report{Benchmarks: []benchResult{}}
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		fmt.Fprintln(echo, line)
		switch {
		case strings.HasPrefix(line, "goos: "):
			rep.Goos = strings.TrimPrefix(line, "goos: ")
		case strings.HasPrefix(line, "goarch: "):
			rep.Goarch = strings.TrimPrefix(line, "goarch: ")
		case strings.HasPrefix(line, "pkg: "):
			rep.Pkg = strings.TrimPrefix(line, "pkg: ")
		case strings.HasPrefix(line, "cpu: "):
			rep.CPU = strings.TrimPrefix(line, "cpu: ")
		case strings.HasPrefix(line, "Benchmark"):
			switch r, err := parseBenchLine(line); err {
			case nil:
				rep.Benchmarks = append(rep.Benchmarks, r)
			case errNotResult:
			default:
				return fmt.Errorf("%q: %w", line, err)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if len(rep.Benchmarks) == 0 {
		return fmt.Errorf("no benchmark lines found in input")
	}
	if merge {
		if err := mergeExisting(&rep, outPath); err != nil {
			return err
		}
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(outPath, append(data, '\n'), 0o644)
}

// mergeExisting folds the prior outPath contents into rep: earlier
// benchmarks not re-measured this run are kept (in their original order,
// ahead of the new results), and same-named ones are superseded. Header
// fields absent from the new input inherit the old file's values. A missing
// outPath is not an error — merge then behaves like a plain write.
func mergeExisting(rep *report, outPath string) error {
	data, err := os.ReadFile(outPath)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return err
	}
	var old report
	if err := json.Unmarshal(data, &old); err != nil {
		return fmt.Errorf("existing %s is not a benchjson report: %w", outPath, err)
	}
	fresh := make(map[string]bool, len(rep.Benchmarks))
	for _, b := range rep.Benchmarks {
		fresh[b.Name] = true
	}
	kept := make([]benchResult, 0, len(old.Benchmarks)+len(rep.Benchmarks))
	for _, b := range old.Benchmarks {
		if !fresh[b.Name] {
			kept = append(kept, b)
		}
	}
	rep.Benchmarks = append(kept, rep.Benchmarks...)
	if rep.Goos == "" {
		rep.Goos = old.Goos
	}
	if rep.Goarch == "" {
		rep.Goarch = old.Goarch
	}
	if rep.Pkg == "" {
		rep.Pkg = old.Pkg
	}
	if rep.CPU == "" {
		rep.CPU = old.CPU
	}
	return nil
}

// errNotResult marks a Benchmark-prefixed line that is not a result line: a
// progress line, a malformed one, or one without an ns/op pair. run skips it.
var errNotResult = errors.New("not a benchmark result line")

// parseBenchLine parses one result line of the form
//
//	BenchmarkName-8   123   456.7 ns/op   89 B/op   1 allocs/op   0.91 hit-ratio
//
// The fields after the iteration count come in (value, unit) pairs. A result
// line carrying a NaN or infinite value is an error, not a skipped line: JSON
// cannot hold the value, and the run that printed it has a bug to report.
func parseBenchLine(line string) (benchResult, error) {
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return benchResult{}, errNotResult
	}
	r := benchResult{Name: fields[0]}
	if i := strings.LastIndex(r.Name, "-"); i > 0 {
		if procs, err := strconv.Atoi(r.Name[i+1:]); err == nil {
			r.Name, r.Procs = r.Name[:i], procs
		}
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return benchResult{}, errNotResult
	}
	r.Iterations = iters
	sawNs := false
	for i := 2; i+1 < len(fields); i += 2 {
		val, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return benchResult{}, errNotResult
		}
		unit := fields[i+1]
		if math.IsNaN(val) || math.IsInf(val, 0) {
			return benchResult{}, fmt.Errorf("non-finite %s %s", fields[i], unit)
		}
		switch unit {
		case "ns/op":
			r.NsPerOp = val
			sawNs = true
		case "B/op":
			v := val
			r.BytesPerOp = &v
		case "allocs/op":
			v := val
			r.AllocsPerOp = &v
		default:
			if r.Metrics == nil {
				r.Metrics = make(map[string]float64)
			}
			r.Metrics[unit] = val
		}
	}
	if !sawNs {
		return benchResult{}, errNotResult
	}
	return r, nil
}
