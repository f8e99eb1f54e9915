package lint

import (
	"go/ast"
	"go/token"
	"strings"
)

// Annotations are the contract-declaring cousins of suppression directives.
// Where an allow directive silences one finding, an annotation *adds* an
// obligation that the whole-program analyzers enforce along the call graph:
//
//	pqlint:parshared(reason)   — on a function declaration: the function is
//	                             a declared shared-state boundary and the
//	                             parsafe walk stops there (the reason must
//	                             say why that is safe). On a statement line
//	                             (trailing, or the line above): the write on
//	                             that line is a declared per-item result
//	                             slot or per-shard scratch slot — the
//	                             sanctioned shared writes of a parallel
//	                             phase.
//	pqlint:noalloc             — the annotated function and every function
//	                             reachable from it must not allocate: pqlint
//	                             flags heap-escaping composite literals,
//	                             allocating builtins (make/new), appends to
//	                             escaping slices, closure and bound-method
//	                             allocations, and interface boxing.
//
// noalloc takes no payload and must sit on a function declaration (its doc
// comment, the func line, or the line above).
// Malformed payloads, unknown verbs, and unattached function-scope
// annotations are diagnostics under the reserved analyzer name "pqlint"
// and cannot be suppressed.
const annoPrefix = "//pqlint:"

const (
	annoParShared = "parshared"
	annoNoAlloc   = "noalloc"
)

// annotation is one parsed, well-formed annotation comment.
type annotation struct {
	verb   string
	reason string // parshared only
	line   int
	pos    token.Pos
	// attached is set once the annotation is claimed by a function
	// declaration; function-scope verbs left unattached are errors.
	attached bool
}

// fileAnnotations indexes one file's annotations by line.
type fileAnnotations struct {
	byLine map[int][]*annotation
	all    []*annotation
}

// annotationTable holds every file's annotations, keyed by filename (the
// path handed to the parser, which findings' positions resolve to).
type annotationTable struct {
	files map[string]*fileAnnotations
}

func newAnnotationTable() *annotationTable {
	return &annotationTable{files: make(map[string]*fileAnnotations)}
}

// collectFile parses the pqlint annotations in file. Malformed annotations
// are returned as unsuppressible findings under the reserved "pqlint"
// analyzer, mirroring directive errors.
func (t *annotationTable) collectFile(fset *token.FileSet, file *SourceFile) []Finding {
	var errs []Finding
	report := func(pos token.Pos, msg string) {
		errs = append(errs, Finding{Analyzer: "pqlint", Pos: fset.Position(pos), Message: msg})
	}
	fa := &fileAnnotations{byLine: make(map[int][]*annotation)}
	for _, cg := range file.AST.Comments {
		for _, c := range cg.List {
			if !strings.HasPrefix(c.Text, annoPrefix) {
				continue
			}
			rest := strings.TrimPrefix(c.Text, annoPrefix)
			if strings.HasPrefix(rest, "allow") {
				continue // suppression directives are parsed in directive.go
			}
			verb, payload := rest, ""
			hasPayload := false
			if open := strings.Index(rest, "("); open >= 0 {
				verb, payload, hasPayload = rest[:open], rest[open:], true
			}
			verb = strings.TrimSpace(verb)
			if i := strings.IndexAny(verb, " \t"); i >= 0 {
				report(c.Pos(), "annotation has trailing text after verb "+quote(verb[:i]))
				continue
			}
			a := &annotation{verb: verb, line: fset.Position(c.Pos()).Line, pos: c.Pos()}
			switch verb {
			case annoNoAlloc:
				if hasPayload {
					report(c.Pos(), "annotation "+quote(verb)+" takes no payload")
					continue
				}
			case annoParShared:
				if !hasPayload || !strings.HasSuffix(payload, ")") || len(payload) < 2 {
					report(c.Pos(), "annotation parshared needs a (reason) payload")
					continue
				}
				a.reason = strings.TrimSpace(payload[1 : len(payload)-1])
				if a.reason == "" {
					report(c.Pos(), "annotation parshared needs a non-empty reason")
					continue
				}
			default:
				report(c.Pos(), "unknown pqlint annotation "+quote(verb)+" (want allow, parshared, or noalloc)")
				continue
			}
			fa.byLine[a.line] = append(fa.byLine[a.line], a)
			fa.all = append(fa.all, a)
		}
	}
	if len(fa.all) > 0 {
		t.files[file.Name] = fa
	}
	return errs
}

// declAnnotations is the set of function-scope annotations on one
// declaration.
type declAnnotations struct {
	noAlloc   bool
	parShared string // reason, "" when absent
}

// attach claims function-scope annotations for every function declaration
// in pkgs and returns findings for noalloc annotations left floating (a
// parshared annotation that attaches to no declaration stays a valid
// line-scope write marker). An annotation attaches to a declaration
// when it sits in the doc comment group, on the func line itself, or on
// the line directly above.
func (t *annotationTable) attach(pkgs []*Package) (map[*ast.FuncDecl]declAnnotations, []Finding) {
	decls := make(map[*ast.FuncDecl]declAnnotations)
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			fa := t.files[file.Name]
			if fa == nil {
				continue
			}
			for _, d := range file.AST.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok {
					continue
				}
				declLine := pkg.Fset.Position(fd.Pos()).Line
				lines := []int{declLine, declLine - 1}
				if fd.Doc != nil {
					for l := pkg.Fset.Position(fd.Doc.Pos()).Line; l <= pkg.Fset.Position(fd.Doc.End()).Line; l++ {
						lines = append(lines, l)
					}
				}
				da := decls[fd]
				for _, l := range lines {
					for _, a := range fa.byLine[l] {
						a.attached = true
						switch a.verb {
						case annoNoAlloc:
							da.noAlloc = true
						case annoParShared:
							da.parShared = a.reason
						}
					}
				}
				decls[fd] = da
			}
		}
	}
	var errs []Finding
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			fa := t.files[file.Name]
			if fa == nil {
				continue
			}
			for _, a := range fa.all {
				if a.attached || a.verb == annoParShared {
					continue
				}
				errs = append(errs, Finding{
					Analyzer: "pqlint",
					Pos:      pkg.Fset.Position(a.pos),
					Message:  "annotation " + quote(a.verb) + " is not attached to a function declaration",
				})
			}
		}
	}
	return decls, errs
}

// parSharedAt returns the reason of a parshared line annotation covering
// the given file/line (the line itself or the line above), or "" when the
// write is undeclared.
func (t *annotationTable) parSharedAt(filename string, line int) string {
	fa := t.files[filename]
	if fa == nil {
		return ""
	}
	for _, l := range []int{line, line - 1} {
		for _, a := range fa.byLine[l] {
			if a.verb == annoParShared {
				return a.reason
			}
		}
	}
	return ""
}
