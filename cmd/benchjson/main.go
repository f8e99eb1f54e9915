// Command benchjson converts `go test -bench -benchmem` output into a
// machine-readable JSON benchmark record (BENCH.json).
//
// Usage:
//
//	go test -bench=. -benchmem -run='^$' . | benchjson -out BENCH.json
//
// `make bench` is its one caller: it pipes the root package's benchmarks and
// two full `pqexp mega` runs through it, so BENCH.json always holds exactly
// one run from one host.
//
// Every input line is passed through to stdout unchanged, so benchjson can
// sit at the end of a pipe without hiding the human-readable report. The
// JSON records, per benchmark: name, GOMAXPROCS suffix, iterations, ns/op,
// B/op, allocs/op, and any custom b.ReportMetric units (hit-ratio,
// msgs/lookup, ...). The goos/goarch/cpu header lines are captured so a
// committed BENCH.json identifies the machine it came from. Input that
// reports a failure (a line starting with FAIL) is an error and writes
// nothing: a failed run is not a record.
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
	out := flag.String("out", "BENCH.json", "output JSON file")
	flag.Parse()
	if err := run(os.Stdin, os.Stdout, *out); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

func run(in io.Reader, echo io.Writer, outPath string) error {
	rep := report{Benchmarks: []benchResult{}}
	failed := ""
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
		case strings.HasPrefix(line, "FAIL") && failed == "":
			failed = line
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
	if failed != "" {
		return fmt.Errorf("the input reports a failure (%q); nothing written", failed)
	}
	if len(rep.Benchmarks) == 0 {
		return fmt.Errorf("no benchmark lines found in input")
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(outPath, append(data, '\n'), 0o644)
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
