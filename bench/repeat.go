package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
)

// repeatRuns measures wl's end-to-end metrics n times, each in a fresh child
// process, one after another, with seeds seed..seed+n-1, and prints the
// median and quartiles of each metric. The spread — the distance between the
// quartiles as a share of the median — is the noise a comparison of two
// commits has to beat: a metric whose spread exceeds its bound is marked
// unresolved.
func repeatRuns(w io.Writer, wl *workload, n int, seed int64, seconds float64) error {
	if n < 2 {
		return fmt.Errorf("-repeat needs at least 2 runs for quartiles, got %d", n)
	}
	exe, err := os.Executable()
	if err != nil {
		return fmt.Errorf("locating the benchmark binary: %w", err)
	}
	series := map[string][]float64{}
	for i := 0; i < n; i++ {
		cmd := exec.Command(exe, "-workload", wl.name, "-trace", "0", "-json",
			"-seed", strconv.FormatInt(seed+int64(i), 10),
			"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64))
		cmd.Stderr = os.Stderr
		stdout, err := cmd.Output() // waits for the child to exit
		if err != nil {
			return fmt.Errorf("run %d: %w", i+1, err)
		}
		var out outcome
		if err := json.Unmarshal(lastLine(stdout), &out); err != nil {
			return fmt.Errorf("run %d: reading the result line: %w", i+1, err)
		}
		for name, r := range out.Metrics {
			series[name] = append(series[name], r.Value)
		}
	}
	fmt.Fprintf(w, "# %s: %d runs, seeds %d..%d\n", wl.name, n, seed, seed+int64(n)-1)
	fmt.Fprintf(w, "%-44s %14s %14s %14s %8s %6s\n", "metric", "q1", "median", "q3", "spread", "bound")
	for _, m := range endToEnd {
		q1, med, q3 := quartiles(series[m.name])
		spread := ratio(q3-q1, med)
		mark := ""
		if spread > m.bound {
			mark = "  unresolved"
		}
		fmt.Fprintf(w, "%-44s %14.6g %14.6g %14.6g %7.2f%% %5.0f%%%s\n",
			wl.name+"/"+m.name+" ["+m.unit+"]", q1, med, q3, 100*spread, 100*m.bound, mark)
	}
	return nil
}

// lastLine returns the last non-empty line of b.
func lastLine(b []byte) []byte {
	b = bytes.TrimRight(b, "\n")
	if i := bytes.LastIndexByte(b, '\n'); i >= 0 {
		return b[i+1:]
	}
	return b
}
