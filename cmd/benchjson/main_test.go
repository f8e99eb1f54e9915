package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"probquorum/internal/experiment"
	"probquorum/internal/lint"
	"probquorum/internal/workload"
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
	r, err := parseBenchLine("BenchmarkDefaultMixHitRatio-4   3   52000000 ns/op   0.91 hit-ratio   120 B/op   2 allocs/op")
	if err != nil {
		t.Fatal(err)
	}
	if r.Metrics["hit-ratio"] != 0.91 {
		t.Fatalf("metrics = %v", r.Metrics)
	}
}

func TestParseBenchLineRejectsNonResults(t *testing.T) {
	for _, line := range []string{
		"BenchmarkFig03StrategyTable",         // progress line, no fields
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
		err := run(in, &strings.Builder{}, out, false)
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
		"BenchmarkMegaScenario/n=10000/shards=2-2 1 9e9 ns/op 2e8 peak-heap-B",
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
BenchmarkEngineScheduleRun-8   	41683408	        27.21 ns/op	       0 B/op	       0 allocs/op
PASS
`)
	var echo strings.Builder
	out := filepath.Join(t.TempDir(), "BENCH.json")
	if err := run(in, &echo, out, false); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(echo.String(), "BenchmarkEngineScheduleRun-8") {
		t.Error("input not echoed to stdout")
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"goos": "linux"`, `"name": "BenchmarkEngineScheduleRun"`, `"ns_per_op": 27.21`, `"allocs_per_op": 0`} {
		if !strings.Contains(string(data), want) {
			t.Errorf("BENCH.json missing %s; got:\n%s", want, data)
		}
	}
}

func TestRunErrorsOnEmptyInput(t *testing.T) {
	out := filepath.Join(t.TempDir(), "BENCH.json")
	if err := run(strings.NewReader("no benchmarks here\n"), &strings.Builder{}, out, false); err == nil {
		t.Fatal("expected an error for input with no benchmark lines")
	}
}

func TestRunMergeFoldsIntoExisting(t *testing.T) {
	out := filepath.Join(t.TempDir(), "BENCH.json")
	first := strings.NewReader(`goos: linux
BenchmarkKept-8   10   100 ns/op
BenchmarkReplaced-8   10   100 ns/op
PASS
`)
	if err := run(first, &strings.Builder{}, out, false); err != nil {
		t.Fatal(err)
	}
	second := strings.NewReader(`BenchmarkReplaced-8   10   250 ns/op
BenchmarkMegaScenario/n=10000/shards=2-2 1 9e9 ns/op 5e8 B/op 100 allocs/op 2e8 peak-heap-B
PASS
`)
	if err := run(second, &strings.Builder{}, out, true); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	got := string(data)
	for _, want := range []string{
		`"name": "BenchmarkKept"`,
		`"name": "BenchmarkMegaScenario/n=10000/shards=2"`,
		`"procs": 2`,
		`"ns_per_op": 250`,
		`"peak-heap-B": 200000000`,
		`"goos": "linux"`, // inherited from the first write
	} {
		if !strings.Contains(got, want) {
			t.Errorf("merged BENCH.json missing %s; got:\n%s", want, got)
		}
	}
	if strings.Contains(got, `"ns_per_op": 100,`) && strings.Count(got, "BenchmarkReplaced") != 1 {
		t.Errorf("replaced benchmark kept its old entry:\n%s", got)
	}
}

// writeReport materializes a BENCH.json from bench-format lines.
func writeReport(t *testing.T, path, lines string) {
	t.Helper()
	if err := run(strings.NewReader(lines), &strings.Builder{}, path, false); err != nil {
		t.Fatal(err)
	}
}

func TestCompareDetectsRegressions(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "base.json")
	cur := filepath.Join(dir, "new.json")
	writeReport(t, base, `BenchmarkSteady-8   10   100 ns/op
BenchmarkSlower-8   10   100 ns/op
BenchmarkMegaScenario/n=10000 1 1e9 ns/op 2e8 peak-heap-B
BenchmarkRetired-8   10   100 ns/op
PASS
`)

	// Within tolerance everywhere: ok, nothing regressed.
	writeReport(t, cur, `BenchmarkSteady-8   10   105 ns/op
BenchmarkSlower-8   10   100 ns/op
BenchmarkMegaScenario/n=10000 1 1.05e9 ns/op 2.1e8 peak-heap-B
BenchmarkFresh-8   10   100 ns/op
PASS
`)
	var out strings.Builder
	regressed, err := runCompare(&out, base, cur, 10)
	if err != nil {
		t.Fatal(err)
	}
	if regressed {
		t.Fatalf("within-tolerance drift reported as regression:\n%s", out.String())
	}
	for _, want := range []string{"new     BenchmarkFresh (no baseline)", "ok: 3 benchmarks"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("compare output missing %q:\n%s", want, out.String())
		}
	}

	// ns/op regression past the threshold trips it.
	writeReport(t, cur, `BenchmarkSlower-8   10   125 ns/op
PASS
`)
	out.Reset()
	if regressed, err = runCompare(&out, base, cur, 10); err != nil || !regressed {
		t.Fatalf("25%% ns/op slowdown not flagged (err=%v):\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "REGRESS BenchmarkSlower ns/op") {
		t.Errorf("missing REGRESS line:\n%s", out.String())
	}

	// peak-heap-B regression alone trips it even with ns/op flat.
	writeReport(t, cur, `BenchmarkMegaScenario/n=10000 1 1e9 ns/op 3e8 peak-heap-B
PASS
`)
	out.Reset()
	if regressed, err = runCompare(&out, base, cur, 10); err != nil || !regressed {
		t.Fatalf("50%% peak-heap growth not flagged (err=%v):\n%s", err, out.String())
	}
}

func TestCompareErrorsWithoutCommonBenchmarks(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "base.json")
	cur := filepath.Join(dir, "new.json")
	writeReport(t, base, "BenchmarkA-8   10   100 ns/op\n")
	writeReport(t, cur, "BenchmarkB-8   10   100 ns/op\n")
	if _, err := runCompare(&strings.Builder{}, base, cur, 10); err == nil {
		t.Fatal("expected an error when the reports share no benchmarks")
	}
}

// TestCompareSkipsNsAcrossProcs: a wall-clock delta between recordings made
// at different GOMAXPROCS is a different host, not a regression — ns/op is
// reported as skipped while peak-heap-B is still gated. A name without a
// suffix is procs=1, as go test prints it.
func TestCompareSkipsNsAcrossProcs(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "base.json")
	cur := filepath.Join(dir, "new.json")
	writeReport(t, base, "BenchmarkMegaScenario/n=10000/shards=2 1 1e9 ns/op 2e8 peak-heap-B\n")
	writeReport(t, cur, "BenchmarkMegaScenario/n=10000/shards=2-8 1 3e9 ns/op 2e8 peak-heap-B\n")
	var out strings.Builder
	regressed, err := runCompare(&out, base, cur, 10)
	if err != nil || regressed {
		t.Fatalf("cross-host ns/op delta flagged (err=%v):\n%s", err, out.String())
	}
	if want := "skipped BenchmarkMegaScenario/n=10000/shards=2 ns/op: procs differ (1 -> 8)"; !strings.Contains(out.String(), want) {
		t.Errorf("compare output missing %q:\n%s", want, out.String())
	}
	if !strings.Contains(out.String(), "peak-heap-B") {
		t.Errorf("peak-heap-B not compared:\n%s", out.String())
	}

	writeReport(t, cur, "BenchmarkMegaScenario/n=10000/shards=2-8 1 1e9 ns/op 3e8 peak-heap-B\n")
	out.Reset()
	if regressed, err = runCompare(&out, base, cur, 10); err != nil || !regressed {
		t.Fatalf("peak-heap growth across hosts not flagged (err=%v):\n%s", err, out.String())
	}
}

// TestPqexpBenchLinesCarryProcs round-trips the figures' own bench lines and
// pqlint's: the name parses back without the suffix and procs is this
// process's GOMAXPROCS (absent at 1, as go test prints it).
func TestPqexpBenchLinesCarryProcs(t *testing.T) {
	want := runtime.GOMAXPROCS(0)
	if want == 1 {
		want = 0
	}
	for _, c := range []struct{ line, name string }{
		{experiment.MegaResult{N: 10000, Shards: 2}.BenchLine(), "BenchmarkMegaScenario/n=10000/shards=2"},
		{experiment.LoadMixResult{Mix: "ab"}.BenchLine(), "BenchmarkLoad/mix=ab/arrival=" + workload.Poisson.String()},
		{experiment.AdaptDriftResult{Drift: "join3x"}.BenchLine(), "BenchmarkAdapt/drift=join3x"},
		{lint.BenchLine(2*time.Second, 40, 12), "BenchmarkPqlint"},
	} {
		r, err := parseBenchLine(c.line)
		if err != nil {
			t.Fatalf("bench line does not parse: %s: %v", c.line, err)
		}
		if r.Name != c.name || r.Procs != want {
			t.Errorf("%s\nparsed as name=%q procs=%d, want name=%q procs=%d", c.line, r.Name, r.Procs, c.name, want)
		}
	}
}
