package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"probquorum/internal/experiment"
)

func TestParseBenchLine(t *testing.T) {
	r, err := parseBenchLine("BenchmarkSINRBroadcast-8   \t 88583\t     13108 ns/op\t      76 B/op\t       1 allocs/op")
	if err != nil {
		t.Fatal(err)
	}
	if r.Name != "BenchmarkSINRBroadcast" || r.Procs != 8 {
		t.Fatalf("name/procs = %q/%d", r.Name, r.Procs)
	}
	if r.Iterations != 88583 || r.NsPerOp != 13108 {
		t.Fatalf("iters/ns = %d/%g", r.Iterations, r.NsPerOp)
	}
	if r.BytesPerOp == nil || *r.BytesPerOp != 76 || r.AllocsPerOp == nil || *r.AllocsPerOp != 1 {
		t.Fatalf("benchmem fields = %v/%v", r.BytesPerOp, r.AllocsPerOp)
	}
}

func TestParseBenchLineCustomMetrics(t *testing.T) {
	r, err := parseBenchLine("BenchmarkWalkLookupIdeal1k-4   174819   6846 ns/op   0.91 hit-ratio   120 B/op   2 allocs/op")
	if err != nil {
		t.Fatal(err)
	}
	if r.Metrics["hit-ratio"] != 0.91 {
		t.Fatalf("metrics = %v", r.Metrics)
	}
}

func TestParseBenchLineRejectsNonResults(t *testing.T) {
	for _, line := range []string{
		"BenchmarkMegaTick",                   // progress line, no fields
		"Benchmark bad iteration count ns/op", // malformed
		"BenchmarkNoUnits-8   100   12345",    // no ns/op pair
	} {
		if _, err := parseBenchLine(line); err != errNotResult {
			t.Errorf("line %q: err = %v, want it skipped as not a result", line, err)
		}
	}
}

// TestRunNamesNonFiniteLine: a NaN or infinite value cannot be written as
// JSON, so run stops at the line that carries it and names it, instead of
// failing the whole write with an anonymous marshal error.
func TestRunNamesNonFiniteLine(t *testing.T) {
	for _, bad := range []string{
		"BenchmarkA-2 10 5 ns/op NaN hit-ratio",
		"BenchmarkB 1 +Inf ns/op",
		"BenchmarkC-4 3 7 ns/op -Inf B/op",
	} {
		out := filepath.Join(t.TempDir(), "BENCH.json")
		in := strings.NewReader("BenchmarkFine-2 10 5 ns/op\n" + bad + "\nPASS\n")
		err := run(in, &strings.Builder{}, out)
		if err == nil || !strings.Contains(err.Error(), bad) {
			t.Errorf("run on %q: err = %v, want one naming the line", bad, err)
		}
		if _, statErr := os.Stat(out); !os.IsNotExist(statErr) {
			t.Errorf("run on %q wrote %s despite the error", bad, out)
		}
	}
}

// FuzzParseBenchLine: parsing never panics, and every line it accepts as a
// result becomes a record encoding/json can write.
func FuzzParseBenchLine(f *testing.F) {
	for _, seed := range []string{
		"BenchmarkA-2 10 5 ns/op NaN hit-ratio",
		"BenchmarkB-8 1 +Inf ns/op",
		"Benchmark- 1 5 ns/op",
		"BenchmarkSINRBroadcast-8 \t 88583\t 13108 ns/op\t 76 B/op\t 1 allocs/op",
		"BenchmarkMegaScenario/n=10000-2 1 9e9 ns/op 2e8 peak-heap-B",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, line string) {
		r, err := parseBenchLine(line)
		if err != nil {
			return
		}
		if _, err := json.Marshal(r); err != nil {
			t.Fatalf("accepted %q but cannot write it: %v", line, err)
		}
	})
}

func TestRunWritesJSONAndEchoes(t *testing.T) {
	in := strings.NewReader(`goos: linux
goarch: amd64
pkg: probquorum
cpu: Test CPU @ 2.00GHz
BenchmarkOracleNextHop/n=600/tree-8   	41683408	        27.21 ns/op	       0 B/op	       0 allocs/op
PASS
`)
	var echo strings.Builder
	out := filepath.Join(t.TempDir(), "BENCH.json")
	if err := run(in, &echo, out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(echo.String(), "BenchmarkOracleNextHop/n=600/tree-8") {
		t.Error("input not echoed to stdout")
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"goos": "linux"`, `"name": "BenchmarkOracleNextHop/n=600/tree"`, `"ns_per_op": 27.21`, `"allocs_per_op": 0`} {
		if !strings.Contains(string(data), want) {
			t.Errorf("BENCH.json missing %s; got:\n%s", want, data)
		}
	}
}

// TestRunRefusesAFailedRun: `make bench` pipes go test and two pqexp runs
// into benchjson, so a failure anywhere reaches it as a FAIL line (go test's
// own, or the one the target echoes when pqexp exits nonzero). The results
// around it are not a record: nothing is written.
func TestRunRefusesAFailedRun(t *testing.T) {
	out := filepath.Join(t.TempDir(), "BENCH.json")
	in := strings.NewReader("BenchmarkFine-2 10 5 ns/op\n--- FAIL: BenchmarkBroken\nFAIL\nexit status 1\nFAIL\tprobquorum\t1.2s\n")
	var echo strings.Builder
	err := run(in, &echo, out)
	if err == nil || !strings.Contains(err.Error(), `"FAIL"`) {
		t.Errorf("err = %v, want one naming the first FAIL line", err)
	}
	if !strings.Contains(echo.String(), "FAIL\tprobquorum") {
		t.Error("input after the failure not echoed")
	}
	if _, statErr := os.Stat(out); !os.IsNotExist(statErr) {
		t.Errorf("wrote %s for a failed run", out)
	}
}

func TestRunErrorsOnEmptyInput(t *testing.T) {
	out := filepath.Join(t.TempDir(), "BENCH.json")
	if err := run(strings.NewReader("no benchmarks here\n"), &strings.Builder{}, out); err == nil {
		t.Fatal("expected an error for input with no benchmark lines")
	}
}

// TestPqexpBenchLinesCarryProcs round-trips the line `pqexp mega` prints for
// `make bench`: the name parses back without the suffix and procs is this
// process's GOMAXPROCS (absent at 1, as go test prints it).
func TestPqexpBenchLinesCarryProcs(t *testing.T) {
	want := runtime.GOMAXPROCS(0)
	if want == 1 {
		want = 0
	}
	line := experiment.MegaResult{N: 10000}.BenchLine()
	r, err := parseBenchLine(line)
	if err != nil {
		t.Fatalf("bench line does not parse: %s: %v", line, err)
	}
	if name := "BenchmarkMegaScenario/n=10000"; r.Name != name || r.Procs != want {
		t.Errorf("%s\nparsed as name=%q procs=%d, want name=%q procs=%d", line, r.Name, r.Procs, name, want)
	}
}
