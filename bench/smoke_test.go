package main

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"probquorum/internal/netstack"
)

// Every workload, at smoke size, must print every named metric exactly once
// with a finite value, simulate the same thing traced and untraced, and pass
// its own correctness checks.
func TestSmokeAllWorkloadsPrintEveryMetric(t *testing.T) {
	want := append(append([]metric(nil), endToEnd...), perLayer...)
	for _, wl := range workloads {
		wl := wl
		t.Run(wl.name, func(t *testing.T) {
			out := measure(wl, options{seed: 1, seconds: 1, trace: "both", smoke: true, outDir: t.TempDir()})
			var buf bytes.Buffer
			out.print(&buf, wl.name, false)
			if !out.Correct {
				t.Errorf("run is not correct: %v", out.problems)
			}
			if out.Attempted < 1 {
				t.Errorf("attempted = %d", out.Attempted)
			}
			if len(out.Metrics) != len(want) {
				t.Errorf("%d metrics, want %d", len(out.Metrics), len(want))
			}
			text := buf.String()
			for _, m := range want {
				r, ok := out.Metrics[m.name]
				if !ok {
					t.Errorf("metric %s is missing", m.name)
					continue
				}
				if math.IsNaN(r.Value) || math.IsInf(r.Value, 0) || r.Unit != m.unit {
					t.Errorf("metric %s = %v %q", m.name, r.Value, r.Unit)
				}
				if n := strings.Count(text, "\n"+wl.name+"/"+m.name+" "); n != 1 {
					t.Errorf("metric %s is printed %d times", m.name, n)
				}
			}
			last := text[strings.LastIndexByte(strings.TrimRight(text, "\n"), '\n')+1:]
			if !strings.HasPrefix(last, `{"correct":true,"attempted":`) {
				t.Errorf("last line is not the result object: %.80s", last)
			}
			if wl.stack == netstack.StackIdeal {
				if out.Metrics["phy.broadcast_us"].Value != 0 || out.Metrics["netstack.routing_msgs_per_op"].Value != 0 {
					t.Errorf("an ideal stack has a medium or AODV control traffic")
				}
			}
		})
	}
}

func TestTracedAndUntracedRunsSimulateTheSame(t *testing.T) {
	wl := findWorkload("scale-sinr-churn").smoke()
	a := timed(setup(wl, nil), 5, 1, nil, false)
	tr := newTracer(1)
	b := timed(setup(wl, traceRouter(tr)), 5, 1, tr, false)
	c := timed(setup(wl, nil), 6, 1, nil, false)
	if a.digest != b.digest {
		t.Errorf("traced digest %d, untraced %d", b.digest, a.digest)
	}
	if a.digest == c.digest {
		t.Errorf("two seeds share digest %d", a.digest)
	}
	if tr.agg[spanRun].count != slices || tr.agg[spanIssue].count != int64(a.attempted) {
		t.Errorf("spans: %d sim.run, %d bench.issue for %d ops", tr.agg[spanRun].count, tr.agg[spanIssue].count, a.attempted)
	}
}
