package lint

import (
	"go/ast"
	"go/token"
	"strings"
)

// directivePrefix introduces every comment pqlint reads. The family has two
// members:
//
//	//pqlint:allow <analyzer>(<reason>)
//	//pqlint:noalloc
//
// allow silences one analyzer: <analyzer> is a registered analyzer name and
// <reason> non-empty free text (everything between the first '(' and the
// last ')'). Written before the package clause it covers the whole file;
// anywhere else it covers findings on its own line and the line immediately
// below it (the two idiomatic placements: trailing the offending line, or on
// its own line directly above). On a call's line it also ends a
// whole-program analyzer's walk at that call (see ProgramPass.walk).
//
// noalloc adds an obligation instead of lifting one: the function it sits
// on — in the doc comment, on the func line, or on the line above — and
// every function reachable from it must not allocate (see noalloc.go). It
// takes no payload.
//
// One comment may carry several directives back to back, each introduced by
// its own prefix, so a single trailing comment can silence two analyzers
// that fire on the same line. A malformed directive, an allow that covers
// nothing and a noalloc attached to no function are diagnostics under the
// reserved analyzer name "pqlint" and cannot be suppressed.
const directivePrefix = "//pqlint:"

// directive is one parsed, well-formed pqlint comment.
type directive struct {
	// analyzer is the allowed analyzer's name; a noalloc annotation carries
	// NoAlloc's, the analyzer that consumes it.
	analyzer string
	reason   string // "" for a noalloc annotation
	pos      token.Pos
	// used is set once an allow covers a finding or ends a walk, or a
	// noalloc annotation is claimed by a function declaration.
	used bool
}

// isAllow distinguishes an allow from a noalloc annotation.
func (d *directive) isAllow() bool { return d.reason != "" }

// directiveSet indexes a file's directives for coverage queries.
type directiveSet struct {
	all      []*directive
	byLine   map[int][]*directive // those that cover lines
	fileWide []*directive         // allows written before the package clause
}

// covers reports whether an allow directive for analyzer applies at line —
// the line itself, the line above, then file-wide — returning its reason
// and marking it used.
func (ds *directiveSet) covers(analyzer string, line int) (string, bool) {
	for _, set := range [][]*directive{ds.byLine[line], ds.byLine[line-1], ds.fileWide} {
		for _, d := range set {
			if d.analyzer == analyzer && d.isAllow() {
				d.used = true
				return d.reason, true
			}
		}
	}
	return "", false
}

// noAllocDecl reports whether fd carries a noalloc annotation — in its doc
// comment, on the func line, or on the line above — and marks it used. A nil
// set (a graph built without directives) holds none.
func (ds *directiveSet) noAllocDecl(fset *token.FileSet, fd *ast.FuncDecl) bool {
	if ds == nil {
		return false
	}
	last := fset.Position(fd.Pos()).Line
	first := last - 1
	if fd.Doc != nil {
		first = fset.Position(fd.Doc.Pos()).Line
	}
	found := false
	for l := first; l <= last; l++ {
		for _, d := range ds.byLine[l] {
			if d.analyzer == NoAlloc.Name && !d.isAllow() {
				d.used, found = true, true
			}
		}
	}
	return found
}

// unused returns a diagnostic for every directive of an analyzer in ran that
// nothing used: a suppression that suppresses nothing hides the next real
// finding on its line, and a floating annotation declares nothing.
func (ds *directiveSet) unused(fset *token.FileSet, ran map[string]bool) []Finding {
	var out []Finding
	for _, d := range ds.all {
		switch {
		case d.used || !ran[d.analyzer]:
		case d.isAllow():
			out = append(out, pqlintFinding(fset, d.pos, "allow "+d.analyzer+" covers no finding and cuts no call: delete it"))
		default:
			out = append(out, pqlintFinding(fset, d.pos, "annotation "+quote(d.analyzer)+" is not attached to a function declaration"))
		}
	}
	return out
}

// pqlintFinding is one diagnostic about the directives themselves.
func pqlintFinding(fset *token.FileSet, pos token.Pos, msg string) Finding {
	return Finding{Analyzer: "pqlint", Pos: fset.Position(pos), Message: msg}
}

// parseDirectives extracts every pqlint directive in file. Malformed ones
// (bad grammar, empty reason, unknown analyzer or verb) are returned as
// findings under the reserved analyzer name "pqlint".
func parseDirectives(fset *token.FileSet, file *ast.File, valid map[string]bool) (*directiveSet, []Finding) {
	ds := &directiveSet{byLine: make(map[int][]*directive)}
	var errs []Finding
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			if !strings.HasPrefix(c.Text, directivePrefix) {
				continue
			}
			// A comment may chain several directives; split on the prefix
			// and validate each segment independently. The first segment is
			// the empty string before the first prefix.
			for _, seg := range strings.Split(c.Text, directivePrefix)[1:] {
				d, problem := parseDirective(strings.TrimSpace(seg), valid)
				if problem != "" {
					errs = append(errs, pqlintFinding(fset, c.Pos(), problem))
					continue
				}
				d.pos = c.Pos()
				ds.all = append(ds.all, d)
				if d.isAllow() && c.End() < file.Package {
					ds.fileWide = append(ds.fileWide, d)
				} else {
					line := fset.Position(c.Pos()).Line
					ds.byLine[line] = append(ds.byLine[line], d)
				}
			}
		}
	}
	return ds, errs
}

// parseDirective parses one segment (the text after the prefix), returning
// the directive or what is wrong with it.
func parseDirective(seg string, valid map[string]bool) (*directive, string) {
	verb := seg
	if i := strings.IndexAny(seg, " \t("); i >= 0 {
		verb = seg[:i]
	}
	rest := strings.TrimSpace(seg[len(verb):])
	switch verb {
	case NoAlloc.Name:
		if rest != "" {
			return nil, "annotation " + quote(verb) + " takes no payload"
		}
		return &directive{analyzer: verb}, ""
	case "allow":
		open := strings.Index(rest, "(")
		if open < 0 || !strings.HasSuffix(rest, ")") {
			return nil, "malformed directive: want //pqlint:allow analyzer(reason)"
		}
		name := strings.TrimSpace(rest[:open])
		reason := strings.TrimSpace(rest[open+1 : len(rest)-1])
		if !valid[name] {
			return nil, "directive names unknown analyzer " + quote(name)
		}
		if reason == "" {
			return nil, "directive for " + name + " needs a non-empty reason"
		}
		return &directive{analyzer: name, reason: reason}, ""
	}
	return nil, "unknown pqlint directive " + quote(verb) + " (want allow or noalloc)"
}

// quote quotes a directive token for an error message.
func quote(s string) string { return `"` + s + `"` }
