//pqlint:allow nowallclock(the -bench wall-time measurement times the host linter itself, not the simulation)

// Command pqlint runs the project's determinism- and invariant-enforcing
// static analysis suite (internal/lint) over the module.
//
// Usage:
//
//	pqlint [-show-suppressed] [-format text|json|sarif] [-bench] [./...]
//
// With the default text format, diagnostics print as
// file:line:col: analyzer: message, sorted by position. -format json emits
// one findings document for tooling; -format sarif emits SARIF 2.1.0 for
// code-scanning upload. A non-zero exit reports unsuppressed findings in
// every format. -bench appends a `go test -bench`-style line with the lint
// wall time when (and only when) the tree is clean, so piping through
// `benchjson -merge` both records lint cost in BENCH.json and fails the
// pipeline on findings (no bench line → benchjson errors).
//
// Benign violations are silenced in place with
// //pqlint:allow analyzer(reason); see DESIGN.md §8 for each rule, the
// directive grammar, and the parshared/noalloc annotation
// contracts.
package main

import (
	"encoding/json"
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
	showSuppressed := fs.Bool("show-suppressed", false, "also print suppressed findings with their reasons (text format)")
	format := fs.String("format", "text", "output format: text, json, or sarif")
	bench := fs.Bool("bench", false, "on a clean tree, print a go-test-style benchmark line with the lint wall time")
	if err := fs.Parse(args); err != nil {
		return err
	}
	for _, pat := range fs.Args() {
		if pat != "./..." {
			return fmt.Errorf("unsupported pattern %q (pqlint lints the whole module; use ./...)", pat)
		}
	}
	if *format != "text" && *format != "json" && *format != "sarif" {
		return fmt.Errorf("unknown format %q (want text, json, or sarif)", *format)
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
	bad := len(lint.Unsuppressed(findings))

	switch *format {
	case "json":
		if err := writeJSON(os.Stdout, findings); err != nil {
			return err
		}
	case "sarif":
		if err := writeSARIF(os.Stdout, findings); err != nil {
			return err
		}
	default:
		for _, f := range findings {
			switch {
			case !f.Suppressed:
				fmt.Println(f)
			case *showSuppressed:
				fmt.Printf("%s [suppressed: %s]\n", f, f.Reason)
			}
		}
	}
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "pqlint: %d finding(s)\n", bad)
		os.Exit(1)
	}
	if *bench {
		// One "iteration"; the custom metrics ride along into BENCH.json.
		fmt.Printf("BenchmarkPqlint \t       1\t%12d ns/op\t%10d pkgs\t%10d findings-suppressed\n",
			elapsed.Nanoseconds(), len(pkgs), len(findings))
	}
	return nil
}

// jsonFinding is the machine-readable form of one diagnostic.
type jsonFinding struct {
	Analyzer   string `json:"analyzer"`
	File       string `json:"file"`
	Line       int    `json:"line"`
	Column     int    `json:"column"`
	Message    string `json:"message"`
	Suppressed bool   `json:"suppressed"`
	Reason     string `json:"reason,omitempty"`
}

func writeJSON(w *os.File, findings []lint.Finding) error {
	out := make([]jsonFinding, 0, len(findings))
	for _, f := range findings {
		out = append(out, jsonFinding{
			Analyzer:   f.Analyzer,
			File:       filepath.ToSlash(f.Pos.Filename),
			Line:       f.Pos.Line,
			Column:     f.Pos.Column,
			Message:    f.Message,
			Suppressed: f.Suppressed,
			Reason:     f.Reason,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(struct {
		Findings []jsonFinding `json:"findings"`
	}{out})
}

// SARIF 2.1.0 minimal profile: one run, one rule per analyzer, one result
// per finding; suppressed findings carry an inSource suppression so code
// scanning hides them without losing the audit trail.
type sarifLog struct {
	Schema  string     `json:"$schema"`
	Version string     `json:"version"`
	Runs    []sarifRun `json:"runs"`
}

type sarifRun struct {
	Tool    sarifTool     `json:"tool"`
	Results []sarifResult `json:"results"`
}

type sarifTool struct {
	Driver sarifDriver `json:"driver"`
}

type sarifDriver struct {
	Name           string      `json:"name"`
	InformationURI string      `json:"informationUri,omitempty"`
	Rules          []sarifRule `json:"rules"`
}

type sarifRule struct {
	ID               string            `json:"id"`
	ShortDescription map[string]string `json:"shortDescription"`
}

type sarifResult struct {
	RuleID       string             `json:"ruleId"`
	Level        string             `json:"level"`
	Message      map[string]string  `json:"message"`
	Locations    []sarifLocation    `json:"locations"`
	Suppressions []sarifSuppression `json:"suppressions,omitempty"`
}

type sarifLocation struct {
	PhysicalLocation sarifPhysical `json:"physicalLocation"`
}

type sarifPhysical struct {
	ArtifactLocation sarifArtifact `json:"artifactLocation"`
	Region           sarifRegion   `json:"region"`
}

type sarifArtifact struct {
	URI string `json:"uri"`
}

type sarifRegion struct {
	StartLine   int `json:"startLine"`
	StartColumn int `json:"startColumn"`
}

type sarifSuppression struct {
	Kind          string `json:"kind"`
	Justification string `json:"justification,omitempty"`
}

func writeSARIF(w *os.File, findings []lint.Finding) error {
	var rules []sarifRule
	for _, az := range lint.Analyzers() {
		rules = append(rules, sarifRule{
			ID:               az.Name,
			ShortDescription: map[string]string{"text": az.Doc},
		})
	}
	rules = append(rules, sarifRule{
		ID:               "pqlint",
		ShortDescription: map[string]string{"text": "malformed pqlint directive or annotation"},
	})
	results := make([]sarifResult, 0, len(findings))
	for _, f := range findings {
		r := sarifResult{
			RuleID:  f.Analyzer,
			Level:   "error",
			Message: map[string]string{"text": f.Message},
			Locations: []sarifLocation{{
				PhysicalLocation: sarifPhysical{
					ArtifactLocation: sarifArtifact{URI: filepath.ToSlash(f.Pos.Filename)},
					Region:           sarifRegion{StartLine: f.Pos.Line, StartColumn: f.Pos.Column},
				},
			}},
		}
		if f.Suppressed {
			r.Suppressions = []sarifSuppression{{Kind: "inSource", Justification: f.Reason}}
		}
		results = append(results, r)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(sarifLog{
		Schema:  "https://json.schemastore.org/sarif-2.1.0.json",
		Version: "2.1.0",
		Runs: []sarifRun{{
			Tool:    sarifTool{Driver: sarifDriver{Name: "pqlint", Rules: rules}},
			Results: results,
		}},
	})
}
