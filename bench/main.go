// Command bench is the repository's benchmark (BENCHMARK.json names it): four
// long-running workloads over the simulator's public constructors, ten
// end-to-end metrics from an untraced run, and per-layer attribution from a
// traced run of the same workload and seed. README.md in this directory says
// what every workload and metric is for.
//
//	go run ./bench                         # everything, all four workloads
//	go run ./bench -workload ideal-walk-read -trace 0
//	go run ./bench -repeat 5               # medians and quartiles per metric
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// runSeconds is BENCHMARK.json's run_seconds: the host time one run's timed
// phase is sized for on the reference host.
const runSeconds = 10

// setups is how many times an end-to-end run performs the set-up phase to
// report its median.
const setups = 3

// options selects what one invocation measures.
type options struct {
	seed    int64
	seconds float64
	trace   string // "0": end-to-end only; "1": per-layer only; "both"
	smoke   bool   // test sizing: tiny workloads, no ok_share floor, short kernels
	outDir  string // where trace files go
}

// outcome is one workload's measurements in the benchmark's output contract.
type outcome struct {
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]reading `json:"metrics"`

	problems []string
	info     []string // human-readable context, not metrics
}

type reading struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// measure runs wl as the options ask and collects the metrics.
func measure(wl *workload, o options) *outcome {
	if o.smoke {
		wl = wl.smoke()
	}
	out := &outcome{Metrics: map[string]reading{}}
	record := func(defs []metric, v values) {
		for _, m := range defs {
			if x, ok := v[m.name]; ok {
				out.Metrics[m.name] = reading{x, m.unit}
			}
		}
		if !v.finite() {
			out.problems = append(out.problems, "a metric is not a finite number")
		}
	}

	// Untraced run: every end-to-end metric, and the C readings.
	p := setup(wl, nil)
	firstSetup, firstSetupWall, qa, ql := p.setupS, p.setupWallS, p.st.qa, p.st.ql
	ru := timed(p, o.seed, o.seconds, nil, !o.smoke)
	p = nil // let the stack go before the next one is built
	out.Attempted, out.Failed = ru.attempted, ru.failed
	out.problems = append(out.problems, ru.problems...)
	out.info = append(out.info, fmt.Sprintf(
		"n=%d |Qa|=%d |Ql|=%d ops=%d (lookups %d, hits %d, writes %d) window=%.1f sim-s drain=%.0f sim-s setup_s=%.3f (wall %.3f) wall_s=%.3f ref_s=%.3f burst_ms=%.4f latency samples=%d",
		wl.n, qa, ql, ru.attempted, ru.lookups, ru.hits, ru.writes,
		wl.issueWindow(o.seconds), wl.drainSecs(), firstSetup, firstSetupWall, ru.wallS, ru.refS, ru.burstS*1e3, len(ru.latencies)))

	if o.trace != "1" {
		setupTimes := []float64{firstSetup}
		for len(setupTimes) < setups {
			setupTimes = append(setupTimes, setup(wl, nil).setupS)
		}
		_, med, _ := quartiles(setupTimes)
		record(endToEnd, endToEndValues(ru, med))
	}
	if o.trace == "0" {
		return out
	}

	// Traced run of the same workload and seed: spans and CPU profile.
	sample := 1000
	if o.smoke {
		sample = 1
	}
	tr := newTracer(sample)
	rt := timed(setup(wl, traceRouter(tr)), o.seed, o.seconds, tr, !o.smoke)
	out.problems = append(out.problems, rt.problems...)
	if rt.digest != ru.digest {
		out.problems = append(out.problems, fmt.Sprintf(
			"traced run simulated something else: sim.digest %d, untraced %d", rt.digest, ru.digest))
	}
	if err := tr.write(filepath.Join(o.outDir, "trace-"+wl.name+".json")); err != nil {
		out.problems = append(out.problems, "trace file: "+err.Error())
	}
	out.info = append(out.info, fmt.Sprintf("traced wall_s=%.3f cpu samples=%d", rt.wallS, rt.cpuSamples))

	kernelSecs := 0.2
	if o.smoke {
		kernelSecs = 0.001
	}
	layer := counterValues(ru)
	for name, x := range spanValues(rt, ru) {
		layer[name] = x
	}
	for name, x := range runKernels(setup(wl, nil), int(ru.queueLenMean), kernelSecs) {
		layer[name] = x
	}
	record(perLayer, layer)
	return out
}

// print writes the outcome as "<workload>/<metric> <value> <unit>" lines
// (unless jsonOnly) and then as the one-line JSON object of the contract.
func (out *outcome) print(w io.Writer, wl string, jsonOnly bool) {
	out.Correct = len(out.problems) == 0
	if !jsonOnly {
		for _, s := range out.info {
			fmt.Fprintf(w, "# %s: %s\n", wl, s)
		}
		for _, defs := range [][]metric{endToEnd, perLayer} {
			for _, m := range defs {
				if r, ok := out.Metrics[m.name]; ok {
					fmt.Fprintf(w, "%s/%s %.10g %s\n", wl, m.name, r.Value, r.Unit)
				}
			}
		}
	}
	for _, p := range out.problems {
		fmt.Fprintf(os.Stderr, "bench: %s: %s\n", wl, p)
	}
	line, _ := json.Marshal(out) // a struct of numbers, strings and bools cannot fail to marshal
	fmt.Fprintf(w, "%s\n", line)
}

// hostLine describes the machine and the settings of this invocation.
func hostLine(seed int64, seconds float64) string {
	return fmt.Sprintf("# host: nproc=%d GOMAXPROCS=%d cpu=%q go=%s seed=%d seconds=%g",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), cpuModel(), runtime.Version(), seed, seconds)
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH // no cpuinfo on this OS; the architecture still says something
	}
	for _, line := range strings.Split(string(data), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
		}
	}
	return runtime.GOARCH
}

func main() {
	var (
		name     = flag.String("workload", "", "workload to run (default: all four)")
		seed     = flag.Int64("seed", 1, "seed of the arrival process")
		seconds  = flag.Float64("seconds", runSeconds, "host seconds the timed phase is sized for")
		trace    = flag.String("trace", "both", "0: end-to-end metrics from an untraced run; 1: per-layer metrics from a traced run; both")
		jsonOnly = flag.Bool("json", false, "print only the JSON result lines")
		repeat   = flag.Int("repeat", 0, "run each workload N times in fresh child processes (seeds seed..seed+N-1) and print quartiles per end-to-end metric")
		smoke    = flag.Bool("smoke", false, "test sizing: n<=100, two simulated seconds")
	)
	flag.Parse()
	if flag.NArg() > 0 || (*trace != "0" && *trace != "1" && *trace != "both") || *seconds <= 0 {
		flag.Usage()
		os.Exit(2)
	}
	// The engine runs serial; a second thread is left to the collector.
	if runtime.NumCPU() < 2 {
		runtime.GOMAXPROCS(1)
	} else {
		runtime.GOMAXPROCS(2)
	}

	selected := workloads
	if *name != "" {
		wl := findWorkload(*name)
		if wl == nil {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
			os.Exit(2)
		}
		selected = []*workload{wl}
	}

	if !*jsonOnly {
		fmt.Println(hostLine(*seed, *seconds))
	}
	ok := true
	if *repeat > 0 {
		for _, wl := range selected {
			if err := repeatRuns(os.Stdout, wl, *repeat, *seed, *seconds); err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", wl.name, err)
				ok = false
			}
		}
	} else {
		o := options{seed: *seed, seconds: *seconds, trace: *trace, smoke: *smoke, outDir: filepath.Join("bench", "out")}
		for _, wl := range selected {
			out := measure(wl, o)
			out.print(os.Stdout, wl.name, *jsonOnly)
			ok = ok && out.Correct
		}
	}
	if !ok {
		os.Exit(1)
	}
}
