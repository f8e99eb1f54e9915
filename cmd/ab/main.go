// Command ab compares the repository's benchmark (bench/, BENCHMARK.json) at
// two commits: it builds the bench binary at a base revision and at the work
// tree (or a second revision), runs the two alternately on the same seeds,
// and prints per end-to-end metric the median ratio work/base, its quartiles
// and how many pairs the work side won — the summary a performance change
// quotes.
//
// Usage:
//
//	make ab BASE=<rev> W=<workload> PAIRS=10 SEED=11
//	go run ./cmd/ab -base <rev> [-work <rev>] -workload <name> [-pairs 10] [-seed 11]
//
// Pair i runs seed SEED+i on both sides; the side that runs first alternates
// from pair to pair, so a host that drifts over the session does not favour
// one of them. Each run is `bench -workload W -seed S -trace 0 -json` in a
// fresh process. Revisions are exported with `git archive` into a temporary
// directory and built there, so nothing in the work tree, its bench/
// directory or the repository's .git is written; the directory is removed
// at exit.
//
// The simulated metrics (ok_share, hit_ratio, msgs_per_op, sim_op_*, and
// the op counts) are a pure function of (workload, seed, seconds): a change
// that only makes the host faster must leave them bit-equal on every seed,
// and the last line says whether it did.
package main

import (
	"archive/tar"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// simulated names the end-to-end metrics that do not depend on the host.
var simulated = map[string]bool{
	"ok_share": true, "hit_ratio": true, "msgs_per_op": true,
	"sim_op_geo_ms": true, "sim_op_tail_ms": true,
}

// metric is one end-to-end metric as BENCHMARK.json declares it.
type metric struct {
	Name   string `json:"name"`
	Better string `json:"better"`
}

// result is the bench binary's JSON result line.
type result struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

func main() {
	var (
		base     = flag.String("base", "", "base revision (required)")
		work     = flag.String("work", "", "work revision (default: the work tree)")
		workload = flag.String("workload", "", "benchmark workload (required)")
		pairs    = flag.Int("pairs", 10, "number of run pairs")
		seed     = flag.Int64("seed", 11, "seed of the first pair")
	)
	flag.Parse()
	if *base == "" || *workload == "" || *pairs < 1 || flag.NArg() > 0 {
		flag.Usage()
		os.Exit(2)
	}
	if err := run(*base, *work, *workload, *pairs, *seed); err != nil {
		fmt.Fprintln(os.Stderr, "ab:", err)
		os.Exit(1)
	}
}

func run(base, work, workload string, pairs int, seed int64) error {
	metrics, err := readMetrics("BENCHMARK.json")
	if err != nil {
		return err
	}
	tmp, err := os.MkdirTemp("", "ab-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)

	baseBin, err := buildAt(tmp, "base", base)
	if err != nil {
		return err
	}
	workBin, err := buildAt(tmp, "work", work)
	if err != nil {
		return err
	}
	workName := "work tree"
	if work != "" {
		workName = work
	}

	var baseRuns, workRuns []result
	for i := 0; i < pairs; i++ {
		s := strconv.FormatInt(seed+int64(i), 10)
		args := []string{"-workload", workload, "-seed", s, "-trace", "0", "-json"}
		order := []string{baseBin, workBin}
		if i%2 == 1 {
			order[0], order[1] = order[1], order[0]
		}
		got := map[string]result{}
		for _, bin := range order {
			r, err := runBench(tmp, bin, args)
			if err != nil {
				return fmt.Errorf("pair %d (seed %s): %w", i+1, s, err)
			}
			got[bin] = r
		}
		baseRuns, workRuns = append(baseRuns, got[baseBin]), append(workRuns, got[workBin])
		fmt.Fprintf(os.Stderr, "ab: pair %d/%d seed %s: ops_per_s %.6g -> %.6g\n", i+1, pairs, s,
			got[baseBin].Metrics["ops_per_s"].Value, got[workBin].Metrics["ops_per_s"].Value)
	}
	fmt.Printf("# ab %s: base %s, work %s, %d pairs, seeds %d..%d\n",
		workload, base, workName, pairs, seed, seed+int64(pairs)-1)
	summarize(os.Stdout, metrics, baseRuns, workRuns)
	return nil
}

// readMetrics returns the end-to-end metrics BENCHMARK.json declares.
func readMetrics(path string) ([]metric, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var decl struct {
		EndToEnd []metric `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &decl); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(decl.EndToEnd) == 0 {
		return nil, fmt.Errorf("%s declares no end_to_end metrics", path)
	}
	return decl.EndToEnd, nil
}

// buildAt builds the bench binary of rev (the work tree when rev is empty)
// into tmp/name.
func buildAt(tmp, name, rev string) (string, error) {
	src := "."
	if rev != "" {
		src = filepath.Join(tmp, name+"-src")
		if err := export(rev, src); err != nil {
			return "", fmt.Errorf("exporting %s: %w", rev, err)
		}
	}
	bin := filepath.Join(tmp, name)
	cmd := exec.Command("go", "build", "-o", bin, "./bench")
	cmd.Dir, cmd.Stdout, cmd.Stderr = src, os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("building bench at %s: %w", name, err)
	}
	return bin, nil
}

// export writes the tree of rev into dir, through `git archive`.
func export(rev, dir string) error {
	cmd := exec.Command("git", "archive", "--format=tar", rev)
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return err
	}
	if err := cmd.Start(); err != nil {
		return err
	}
	if err := untar(out, dir); err != nil {
		cmd.Wait()
		return err
	}
	return cmd.Wait()
}

func untar(r io.Reader, dir string) error {
	tr := tar.NewReader(r)
	for {
		h, err := tr.Next()
		if errors.Is(err, io.EOF) {
			return nil
		}
		if err != nil {
			return err
		}
		path := filepath.Join(dir, h.Name)
		if !strings.HasPrefix(path, filepath.Clean(dir)+string(os.PathSeparator)) {
			return fmt.Errorf("archive entry %q leaves the directory", h.Name)
		}
		switch h.Typeflag {
		case tar.TypeDir:
			if err := os.MkdirAll(path, 0o755); err != nil {
				return err
			}
		case tar.TypeReg:
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				return err
			}
			f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, os.FileMode(h.Mode)&0o777)
			if err != nil {
				return err
			}
			_, err = io.Copy(f, tr)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				return err
			}
		}
	}
}

// runBench runs one bench process in dir and returns its result line.
func runBench(dir, bin string, args []string) (result, error) {
	cmd := exec.Command(bin, args...)
	cmd.Dir, cmd.Stderr = dir, os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return result{}, fmt.Errorf("%s: %w", filepath.Base(bin), err)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		return result{}, fmt.Errorf("%s: reading the result line: %w", filepath.Base(bin), err)
	}
	if !r.Correct {
		return result{}, fmt.Errorf("%s: run reports correct=false", filepath.Base(bin))
	}
	return r, nil
}

// summarize prints, per metric, the median and quartiles of the per-pair
// ratio work/base, the pairs the work side won (a tie wins neither), each
// side's median, and the spread of the base runs — their interquartile range
// over their median, the noise a median gain has to beat — then whether
// every simulated quantity was bit-equal on every seed.
func summarize(w io.Writer, metrics []metric, base, work []result) {
	fmt.Fprintf(w, "%-16s %-6s %8s %8s %8s %6s %12s %12s %9s\n",
		"metric", "better", "median", "q1", "q3", "wins", "base", "work", "base IQR")
	for _, m := range metrics {
		ratios := make([]float64, len(base))
		bs, ws := make([]float64, len(base)), make([]float64, len(base))
		wins := 0
		for i := range base {
			b, x := base[i].Metrics[m.Name].Value, work[i].Metrics[m.Name].Value
			ratios[i], bs[i], ws[i] = x/b, b, x
			if (m.Better == "higher" && x > b) || (m.Better == "lower" && x < b) {
				wins++
			}
		}
		q1, med, q3 := quartiles(ratios)
		b1, bmed, b3 := quartiles(bs)
		_, wmed, _ := quartiles(ws)
		fmt.Fprintf(w, "%-16s %-6s %8.4f %8.4f %8.4f %3d/%-2d %12.6g %12.6g %8.2f%%\n",
			m.Name, m.Better, med, q1, q3, wins, len(base), bmed, wmed, 100*(b3-b1)/bmed)
	}
	equal := "yes"
	for i := range base {
		if !simEqual(base[i], work[i]) {
			equal = "no"
		}
	}
	fmt.Fprintf(w, "simulated metrics bit-equal per seed: %s\n", equal)
}

// simEqual reports whether two runs of one seed agree on every simulated
// quantity.
func simEqual(a, b result) bool {
	if a.Attempted != b.Attempted || a.Failed != b.Failed {
		return false
	}
	for name := range simulated {
		if math.Float64bits(a.Metrics[name].Value) != math.Float64bits(b.Metrics[name].Value) {
			return false
		}
	}
	return true
}

// quartiles returns q1, the median and q3 of vals by linear interpolation
// between order statistics (the (n−1)p rule).
func quartiles(vals []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	at := func(p float64) float64 {
		x := p * float64(len(s)-1)
		i := int(x)
		if i+1 >= len(s) {
			return s[len(s)-1]
		}
		return s[i] + (x-float64(i))*(s[i+1]-s[i])
	}
	return at(0.25), at(0.5), at(0.75)
}
