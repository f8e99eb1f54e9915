package main

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
)

// runWith makes a result line with the given ops_per_s and live_heap_mb and one
// simulated metric.
func runWith(t *testing.T, ops, heap, hit float64) result {
	t.Helper()
	var r result
	line := `{"correct":true,"attempted":10,"failed":1,"metrics":{` +
		`"ops_per_s":{"value":` + jsonNum(ops) + `},"live_heap_mb":{"value":` + jsonNum(heap) + `},` +
		`"hit_ratio":{"value":` + jsonNum(hit) + `}}}`
	if err := json.Unmarshal([]byte(line), &r); err != nil {
		t.Fatal(err)
	}
	return r
}

func jsonNum(x float64) string {
	b, _ := json.Marshal(x)
	return string(b)
}

// TestSummarize: ratios are work/base, a win follows the metric's
// direction, and one seed whose simulated metric moves turns the verdict
// to "no".
func TestSummarize(t *testing.T) {
	metrics := []metric{{"ops_per_s", "higher"}, {"live_heap_mb", "lower"}}
	base := []result{runWith(t, 100, 10, 0.9), runWith(t, 100, 10, 0.9), runWith(t, 100, 10, 0.9)}
	work := []result{runWith(t, 110, 9, 0.9), runWith(t, 120, 11, 0.9), runWith(t, 90, 10, 0.9)}
	var out bytes.Buffer
	summarize(&out, metrics, base, work)
	got := out.String()
	for _, want := range []string{
		"ops_per_s        higher   1.1000   1.0000   1.1500   2/3           100          110     0.00%",
		"live_heap_mb     lower    1.0000   0.9500   1.0500   1/3            10           10     0.00%",
		"simulated metrics bit-equal per seed: yes",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("summary lacks %q:\n%s", want, got)
		}
	}

	work[1] = runWith(t, 120, 11, math.Nextafter(0.9, 1))
	out.Reset()
	summarize(&out, metrics, base, work)
	if !strings.Contains(out.String(), "bit-equal per seed: no") {
		t.Errorf("a moved hit_ratio on one seed still reads bit-equal:\n%s", out.String())
	}
}

func TestQuartiles(t *testing.T) {
	q1, med, q3 := quartiles([]float64{4, 1, 3, 2, 5})
	if q1 != 2 || med != 3 || q3 != 4 {
		t.Fatalf("quartiles of 1..5 = %v %v %v, want 2 3 4", q1, med, q3)
	}
	if q1, med, q3 := quartiles([]float64{7}); q1 != 7 || med != 7 || q3 != 7 {
		t.Fatalf("quartiles of one value = %v %v %v, want 7 7 7", q1, med, q3)
	}
}
