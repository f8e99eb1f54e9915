// Package lint implements pqlint, the project's determinism- and
// invariant-enforcing static analysis suite.
//
// Every figure in this reproduction is accepted by bit-identical replay
// across seeds and parallel widths (see DESIGN.md §8). That guarantee rests on
// rules the compiler cannot check: all randomness flows from an
// engine-seeded *rand.Rand, no simulation code reads the wall clock, and no
// order-sensitive work hangs off Go's randomized map iteration. pqlint
// turns those implicit rules into machine-checked ones.
//
// The suite is stdlib-only (go/ast, go/parser, go/token, go/types) and runs
// as `go run ./cmd/pqlint ./...` or through TestPqlintClean. Analyzers:
//
//   - noglobalrand: package-level math/rand draws are forbidden
//   - nowallclock:  time.Now/Sleep/After/Tick &c. and os.Getpid are forbidden
//   - detrange:     order-sensitive bodies under map iteration
//   - noalloc:      whole-program — pqlint:noalloc-annotated hot paths
//     must not allocate along the call chain, up to the calls that
//     declare a hand-off
//
// noalloc walks a class-hierarchy-style call graph over the whole module
// (see callgraph.go; load.go says why a function has one identity in every
// package that calls it). Benign violations are silenced in place with a
// reasoned directive:
//
//	//pqlint:allow analyzer(reason)
//
// placed on the offending line, the line above it, or — before the package
// clause — covering the whole file. The reason is mandatory; a malformed or
// unknown directive, and an allow that silences nothing, is itself a
// diagnostic (analyzer "pqlint") and cannot be suppressed. directive.go
// holds the grammar.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Finding is one diagnostic produced by an analyzer.
type Finding struct {
	// Analyzer is the name of the rule that fired.
	Analyzer string
	// Pos locates the diagnostic.
	Pos token.Position
	// Message describes the violation.
	Message string
	// Suppressed reports whether a //pqlint:allow directive covers the
	// finding; Reason carries the directive's justification.
	Suppressed bool
	Reason     string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Analyzer, f.Message)
}

// Analyzer is one self-contained rule.
type Analyzer struct {
	// Name is the identifier used in diagnostics and allow directives.
	Name string
	// Doc is a one-line description of the rule.
	Doc string
	// TestFiles runs the analyzer on _test.go files too. Test files are
	// analyzed syntactically (no type information).
	TestFiles bool
	// Run reports the rule's findings for one file. Nil for whole-program
	// analyzers.
	Run func(p *Pass)
	// RunProgram reports findings over the whole module at once, with the
	// call graph available. Nil for per-file analyzers.
	RunProgram func(p *ProgramPass)
}

// Analyzers is the full suite in reporting order.
func Analyzers() []*Analyzer {
	return []*Analyzer{NoGlobalRand, NoWallClock, DetRange, NoAlloc}
}

// Pass hands one file to an analyzer and collects its findings.
type Pass struct {
	// Pkg is the package being analyzed.
	Pkg *Package
	// File is the file under analysis.
	File *SourceFile

	analyzer string
	findings *[]Finding
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.findings = append(*p.findings, Finding{
		Analyzer: p.analyzer,
		Pos:      p.Pkg.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// TypeOf returns the type of e, or nil when type information is
// unavailable (test files, or packages that failed to type-check).
func (p *Pass) TypeOf(e ast.Expr) types.Type {
	if p.Pkg.Info == nil {
		return nil
	}
	return p.Pkg.Info.TypeOf(e)
}

// ObjectOf resolves id to its object, or nil without type information.
func (p *Pass) ObjectOf(id *ast.Ident) types.Object {
	if p.Pkg.Info == nil {
		return nil
	}
	return p.Pkg.Info.ObjectOf(id)
}

// PkgFuncCall reports whether call is a selector call on an imported
// package (pkg.Func(...)), returning the package's import path and the
// function name. It prefers type information and falls back to the file's
// import table for untyped (test) files.
func (p *Pass) PkgFuncCall(call *ast.CallExpr) (path, fn string, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	id, isID := sel.X.(*ast.Ident)
	if !isID {
		return "", "", false
	}
	if path := p.importedPkgPath(id); path != "" {
		return path, sel.Sel.Name, true
	}
	return "", "", false
}

// importedPkgPath returns the import path id refers to when id names an
// imported package, and "" otherwise.
func (p *Pass) importedPkgPath(id *ast.Ident) string {
	if p.Pkg.Info != nil {
		if pn, ok := p.Pkg.Info.Uses[id].(*types.PkgName); ok {
			return pn.Imported().Path()
		}
		return ""
	}
	// Syntactic fallback (test files): match the import table by name.
	// Local shadowing of a package name is not detected here; the repo's
	// style never shadows import names.
	for _, imp := range p.File.AST.Imports {
		path := strings.Trim(imp.Path.Value, `"`)
		name := path
		if i := strings.LastIndex(path, "/"); i >= 0 {
			name = path[i+1:]
		}
		if imp.Name != nil {
			name = imp.Name.Name
		}
		if name == id.Name {
			return path
		}
	}
	return ""
}

// ProgramPass hands the whole module to a whole-program analyzer.
type ProgramPass struct {
	// Graph is the module call graph (see callgraph.go).
	Graph *CallGraph

	directives map[string]*directiveSet // by filename
	analyzer   string
	findings   *[]Finding
}

// Fset returns the file set positions resolve against.
func (p *ProgramPass) Fset() *token.FileSet { return p.Graph.Fset }

// Reportf records a finding at pos.
func (p *ProgramPass) Reportf(pos token.Pos, format string, args ...any) {
	*p.findings = append(*p.findings, Finding{
		Analyzer: p.analyzer,
		Pos:      p.Graph.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// view adapts one call-graph node to the per-file Pass API so per-file
// helpers (TypeOf, ObjectOf, ...) work inside program analyzers.
func (p *ProgramPass) view(n *FuncNode) *Pass {
	return &Pass{Pkg: n.Pkg, File: n.File, analyzer: p.analyzer, findings: p.findings}
}

// walk visits everything reachable from roots (see CallGraph.walk), except
// through a call on whose line an allow directive for this analyzer sits:
// what a declared cold path, or caller-supplied code a checked path hands
// off to, goes on to do is not the checked path's.
func (p *ProgramPass) walk(roots []*FuncNode, visit func(n *FuncNode, chain []string)) {
	p.Graph.walk(roots, func(e Edge) bool {
		pos := p.Fset().Position(e.Site)
		_, allowed := p.directives[pos.Filename].covers(p.analyzer, pos.Line)
		return allowed
	}, visit)
}

// Run executes the given analyzers over pkgs, applies suppression
// directives, and returns all findings (suppressed ones included) sorted by
// position.
func Run(pkgs []*Package, analyzers []*Analyzer) []Finding {
	valid := make(map[string]bool) // analyzer names a directive may allow
	for _, az := range Analyzers() {
		valid[az.Name] = true
	}
	var out []Finding

	// Pass 1: parse every file's directives up front — whole-program
	// findings land in arbitrary files, so suppression must be resolvable
	// per filename after all analyzers have run.
	directives := make(map[string]*directiveSet)
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			ds, errs := parseDirectives(pkg.Fset, file.AST, valid)
			out = append(out, errs...)
			directives[file.Name] = ds
		}
	}

	// Pass 2: per-file analyzers. examples/ are documentation-grade demo
	// binaries outside the simulation determinism boundary and are skipped
	// (the call graph leaves them out as well).
	var findings []Finding
	var program []*Analyzer
	ran := make(map[string]bool)
	for _, az := range analyzers {
		ran[az.Name] = true
		if az.RunProgram != nil {
			program = append(program, az)
			continue
		}
		for _, pkg := range pkgs {
			for _, file := range pkg.Files {
				if pkg.Example || (file.Test && !az.TestFiles) {
					continue
				}
				az.Run(&Pass{Pkg: pkg, File: file, analyzer: az.Name, findings: &findings})
			}
		}
	}

	// Pass 3: whole-program analyzers over the shared call graph.
	if len(program) > 0 {
		graph := buildCallGraph(pkgs, directives)
		for _, az := range program {
			az.RunProgram(&ProgramPass{
				Graph: graph, directives: directives,
				analyzer: az.Name, findings: &findings,
			})
		}
	}

	for i := range findings {
		f := &findings[i]
		f.Reason, f.Suppressed = directives[f.Pos.Filename].covers(f.Analyzer, f.Pos.Line)
	}
	out = append(out, findings...)
	// Every directive of an analyzer that ran has had its chance by now.
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			out = append(out, directives[file.Name].unused(pkg.Fset, ran)...)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return out
}

// Unsuppressed filters findings down to the ones that fail the build.
func Unsuppressed(findings []Finding) []Finding {
	var out []Finding
	for _, f := range findings {
		if !f.Suppressed {
			out = append(out, f)
		}
	}
	return out
}
