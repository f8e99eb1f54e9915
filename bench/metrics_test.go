package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-12*math.Max(1, math.Abs(b)) }

func TestQuantileInterpolates(t *testing.T) {
	s := []float64{10, 20, 30, 40, 50}
	for q, want := range map[float64]float64{0: 10, 0.5: 30, 0.25: 20, 0.9: 46, 1: 50} {
		if got := quantile(s, q); !near(got, want) {
			t.Errorf("quantile(%v) = %v, want %v", q, got, want)
		}
	}
	if quantile(nil, 0.5) != 0 {
		t.Error("quantile of nothing must be 0")
	}
}

func TestBandMean(t *testing.T) {
	s := make([]float64, 100)
	for i := range s {
		s[i] = float64(i)
	}
	if got := bandMean(s, 0.25, 0.75); !near(got, 49.5) { // ranks 25..74
		t.Errorf("interquartile mean = %v, want 49.5", got)
	}
	if got := geoMean([]float64{0, 1, 100, 0, 10}); !near(got, 10) {
		t.Errorf("geometric mean = %v, want 10", got)
	}
	if geoMean([]float64{0, 0}) != 0 {
		t.Error("geometric mean of no positive value must be 0")
	}
	if got := bandMean(s, 0.90, 0.99); !near(got, 94) { // ranks 90..98
		t.Errorf("tail mean = %v, want 94", got)
	}
	if bandMean(nil, 0.25, 0.75) != 0 {
		t.Error("band mean of nothing must be 0")
	}
}

// Values from Python: statistics.quantiles(data, n=4).
func TestQuartilesMatchPythonStatistics(t *testing.T) {
	cases := []struct {
		data []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{5, 1, 4, 2, 3}, [3]float64{1.5, 3, 4.5}},
		{[]float64{2, 9}, [3]float64{0.25, 5.5, 10.75}},
		{[]float64{3.1, 2.9, 3.0}, [3]float64{2.9, 3.0, 3.1}},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.data)
		if !near(q1, c.want[0]) || !near(q2, c.want[1]) || !near(q3, c.want[2]) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v", c.data, q1, q2, q3, c.want)
		}
	}
}

func TestMetricNamesAreUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, m := range append(append([]metric(nil), endToEnd...), perLayer...) {
		if seen[m.name] {
			t.Errorf("metric %q is listed twice", m.name)
		}
		seen[m.name] = true
		if m.better != "lower" && m.better != "higher" {
			t.Errorf("metric %q: direction %q", m.name, m.better)
		}
	}
}

// BENCHMARK.json at the root of the repository is what the driver reads; the
// tables in this package are what the harness prints. They must agree.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type jsonMetric struct {
		Name, Unit, Better string
		Bound              float64
	}
	var spec struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []jsonMetric `json:"end_to_end"`
		PerLayer   []jsonMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if want := []string{"go", "run", "./bench"}; !reflect.DeepEqual(spec.Command, want) {
		t.Errorf("command = %v, want %v", spec.Command, want)
	}
	if want := []string{"bench"}; !reflect.DeepEqual(spec.Paths, want) {
		t.Errorf("paths = %v, want %v", spec.Paths, want)
	}
	if spec.RunSeconds != runSeconds {
		t.Errorf("run_seconds = %d, harness is sized for %d", spec.RunSeconds, runSeconds)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the harness", len(spec.Workloads), len(workloads))
	}
	for i, wl := range workloads {
		if spec.Workloads[i].Name != wl.name || spec.Workloads[i].Why != wl.why {
			t.Errorf("workload %d: BENCHMARK.json has %q / %q, harness has %q / %q",
				i, spec.Workloads[i].Name, spec.Workloads[i].Why, wl.name, wl.why)
		}
		if len(wl.why) > 200 {
			t.Errorf("workload %s: why is %d characters, limit 200", wl.name, len(wl.why))
		}
	}
	check := func(kind string, got []jsonMetric, want []metric) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the harness", kind, len(got), len(want))
		}
		for i, m := range want {
			if g := (jsonMetric{m.name, m.unit, m.better, m.bound}); got[i] != g {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, harness has %+v", kind, i, got[i], g)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}
