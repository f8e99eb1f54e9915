//pqlint:allow nowallclock(the -bench wall-time measurement times the host linter itself, not the simulation)

// Command pqlint runs the project's determinism- and invariant-enforcing
// static analysis suite (internal/lint) over the module.
//
// Usage:
//
//	pqlint [-show-suppressed] [-bench] [./...]
//
// Diagnostics print as file:line:col: analyzer: message, sorted by position
// (the shape CI's problem matcher reads); a non-zero exit reports
// unsuppressed findings. -bench appends a `go test -bench`-style line with
// the lint wall time when (and only when) the tree is clean, so piping
// through `benchjson -merge` both records lint cost in BENCH.json and fails
// the pipeline on findings (no bench line → benchjson errors).
//
// Benign violations are silenced in place with
// //pqlint:allow analyzer(reason); see DESIGN.md §8 for each rule, the
// directive grammar, and the noalloc annotation contract.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"probquorum/internal/lint"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "pqlint:", err)
		os.Exit(2)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("pqlint", flag.ContinueOnError)
	showSuppressed := fs.Bool("show-suppressed", false, "also print suppressed findings with their reasons")
	bench := fs.Bool("bench", false, "on a clean tree, print a go-test-style benchmark line with the lint wall time")
	if err := fs.Parse(args); err != nil {
		return err
	}
	for _, pat := range fs.Args() {
		if pat != "./..." {
			return fmt.Errorf("unsupported pattern %q (pqlint lints the whole module; use ./...)", pat)
		}
	}

	start := time.Now()
	root, err := lint.FindModuleRoot(".")
	if err != nil {
		return err
	}
	pkgs, err := lint.NewLoader().LoadModule(root)
	if err != nil {
		return err
	}
	findings := lint.Run(pkgs, lint.Analyzers())
	elapsed := time.Since(start)

	for i := range findings {
		if rel, err := filepath.Rel(root, findings[i].Pos.Filename); err == nil {
			findings[i].Pos.Filename = rel
		}
	}
	for _, f := range findings {
		switch {
		case !f.Suppressed:
			fmt.Println(f)
		case *showSuppressed:
			fmt.Printf("%s [suppressed: %s]\n", f, f.Reason)
		}
	}
	if bad := len(lint.Unsuppressed(findings)); bad > 0 {
		fmt.Fprintf(os.Stderr, "pqlint: %d finding(s)\n", bad)
		os.Exit(1)
	}
	if *bench {
		fmt.Println(lint.BenchLine(elapsed, len(pkgs), len(findings)))
	}
	return nil
}
