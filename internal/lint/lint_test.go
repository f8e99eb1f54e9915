package lint_test

import (
	"path/filepath"
	"strings"
	"testing"

	"probquorum/internal/lint"
)

// loader is shared across tests so the source importer's stdlib work is
// done once.
var loader = lint.NewLoader()

func loadFixture(t *testing.T, name string) *lint.Package {
	t.Helper()
	pkg, err := loader.LoadDir(filepath.Join("testdata", filepath.FromSlash(name)))
	if err != nil {
		t.Fatalf("loading fixture %s: %v", name, err)
	}
	if len(pkg.TypeErrors) > 0 {
		t.Fatalf("fixture %s does not type-check: %v", name, pkg.TypeErrors)
	}
	return pkg
}

// TestAnalyzerFixtures drives each analyzer over its fixture package:
// positive.go must yield unsuppressed findings, clean.go none, and
// suppressed.go only suppressed findings carrying the directive's reason.
// The crosspkg row runs the whole-program analyzer over a two-package
// fixture whose roots sit in package a and whose violations sit in package
// b: each chain must be printed, which takes a call graph that resolves a
// static call and an interface call across the package boundary. The
// noalloc row's chain is a call to a method of an instantiated generic type.
func TestAnalyzerFixtures(t *testing.T) {
	crosspkg := []string{"crosspkg/a", "crosspkg/b"}
	rows := []struct {
		name      string // the analyzer's own name and fixture when empty
		az        *lint.Analyzer
		dirs      []string
		positives int      // unsuppressed findings wanted in positive.go, at least
		chains    []string // each must appear in some positive.go finding
	}{
		{az: lint.NoGlobalRand, positives: 2}, // rand.Float64, rand.Intn
		{az: lint.NoWallClock, positives: 3},  // time.Now, time.Sleep, os.Getpid
		{az: lint.DetRange, positives: 3},     // RNG draw, scheduling, escaping append
		{az: lint.NoAlloc, positives: 7, // escaping append, &lit, boxing, closure, method value, make, generic method's append
			chains: []string{"noalloc.pushNode -> noalloc.(*stack).push]"}},
		{name: "crosspkg-noalloc", az: lint.NoAlloc, dirs: crosspkg, positives: 2,
			chains: []string{"a.hotStatic -> b.Scratch]", "a.hotIface -> b.(*Table).Put]"}},
	}
	covered := make(map[string]bool)
	for _, row := range rows {
		az := row.az
		covered[az.Name] = true
		if row.name == "" {
			row.name, row.dirs = az.Name, []string{az.Name}
		}
		t.Run(row.name, func(t *testing.T) {
			var pkgs []*lint.Package
			for _, dir := range row.dirs {
				pkgs = append(pkgs, loadFixture(t, dir))
			}
			findings := lint.Run(pkgs, []*lint.Analyzer{az})
			perFile := make(map[string][]lint.Finding)
			for _, f := range findings {
				if f.Analyzer != az.Name {
					t.Errorf("unexpected analyzer %s in findings: %s", f.Analyzer, f)
					continue
				}
				perFile[filepath.Base(f.Pos.Filename)] = append(perFile[filepath.Base(f.Pos.Filename)], f)
			}

			positives := perFile["positive.go"]
			if got := len(lintUnsuppressed(positives)); got < row.positives {
				t.Errorf("positive.go: got %d unsuppressed findings, want >= %d: %v",
					got, row.positives, positives)
			}
			for _, f := range positives {
				if f.Suppressed {
					t.Errorf("positive.go finding unexpectedly suppressed: %s", f)
				}
			}
			for _, chain := range row.chains {
				found := false
				for _, f := range positives {
					found = found || strings.Contains(f.Message, chain)
				}
				if !found {
					t.Errorf("positive.go: no finding reached over the chain %q: %v", chain, positives)
				}
			}

			if clean := perFile["clean.go"]; len(clean) > 0 {
				t.Errorf("clean.go: unexpected findings: %v", clean)
			}

			sup := perFile["suppressed.go"]
			if len(sup) == 0 {
				t.Errorf("suppressed.go: want at least one (suppressed) finding, got none")
			}
			for _, f := range sup {
				if !f.Suppressed {
					t.Errorf("suppressed.go finding not suppressed: %s", f)
				}
				if strings.TrimSpace(f.Reason) == "" {
					t.Errorf("suppressed.go finding has empty reason: %s", f)
				}
			}

			// Analyzers that skip test files must stay silent on them.
			if !az.TestFiles {
				for name, fs := range perFile {
					if strings.HasSuffix(name, "_test.go") && len(fs) > 0 {
						t.Errorf("%s: findings in test file despite exemption: %v", name, fs)
					}
				}
			}
		})
	}
	for _, az := range lint.Analyzers() {
		if !covered[az.Name] {
			t.Errorf("analyzer %s has no fixture row", az.Name)
		}
	}
}

func lintUnsuppressed(fs []lint.Finding) []lint.Finding { return lint.Unsuppressed(fs) }

// TestDirectiveErrors checks that malformed, reason-less, and
// unknown-analyzer directives, and an allow that covers nothing, are
// themselves diagnostics and cannot be suppressed.
func TestDirectiveErrors(t *testing.T) {
	pkg := loadFixture(t, "directive")
	findings := lint.Run([]*lint.Package{pkg}, lint.Analyzers())
	var pqlint []lint.Finding
	for _, f := range findings {
		if f.Analyzer == "pqlint" {
			pqlint = append(pqlint, f)
		}
	}
	if len(pqlint) != 4 {
		t.Fatalf("want 4 directive diagnostics, got %d: %v", len(pqlint), pqlint)
	}
	wants := []string{"malformed directive", "needs a non-empty reason", "unknown analyzer", "allow detrange covers no finding"}
	for _, want := range wants {
		found := false
		for _, f := range pqlint {
			if strings.Contains(f.Message, want) {
				found = true
			}
		}
		if !found {
			t.Errorf("no directive diagnostic mentioning %q in %v", want, pqlint)
		}
	}
	for _, f := range pqlint {
		if f.Suppressed {
			t.Errorf("directive diagnostic must not be suppressible: %s", f)
		}
	}
}

// TestSuppressionEdgeCases drives the edge fixture: a file-wide directive
// plus line-scope directives, one comment silencing two analyzers on one
// line, and an allow directive inside a pqlint:noalloc-annotated
// declaration. Every finding must come out suppressed with a reason, and
// every directive must have been used (an unused one is a finding).
func TestSuppressionEdgeCases(t *testing.T) {
	pkg := loadFixture(t, "edges")
	findings := lint.Run([]*lint.Package{pkg}, lint.Analyzers())
	if len(findings) == 0 {
		t.Fatal("edge fixture produced no findings; triggers are broken")
	}
	byAnalyzer := make(map[string]int)
	for _, f := range findings {
		byAnalyzer[f.Analyzer]++
		if !f.Suppressed {
			t.Errorf("finding not suppressed: %s", f)
		}
		if strings.TrimSpace(f.Reason) == "" {
			t.Errorf("suppressed without reason: %s", f)
		}
	}
	for _, az := range []string{"nowallclock", "detrange", "noglobalrand", "noalloc"} {
		if byAnalyzer[az] == 0 {
			t.Errorf("edge fixture never triggered %s (got %v)", az, byAnalyzer)
		}
	}
	// detrange and noglobalrand fire on the same line and are silenced by a
	// single two-directive comment; both must carry their own reason.
	var detReason, randReason string
	for _, f := range findings {
		switch {
		case f.Analyzer == "detrange":
			detReason = f.Reason
		case f.Analyzer == "noglobalrand" && strings.Contains(f.Reason, "picks the map"):
			randReason = f.Reason
		}
	}
	if detReason == "" || randReason == "" || detReason == randReason {
		t.Errorf("multi-directive comment did not keep per-analyzer reasons: %q vs %q", detReason, randReason)
	}
}

// TestAnnotationErrors checks that malformed and unattached annotations
// are unsuppressible "pqlint" diagnostics.
func TestAnnotationErrors(t *testing.T) {
	pkg := loadFixture(t, "annot")
	findings := lint.Run([]*lint.Package{pkg}, lint.Analyzers())
	var pq []lint.Finding
	for _, f := range findings {
		if f.Analyzer == "pqlint" {
			pq = append(pq, f)
		} else {
			t.Errorf("unexpected non-pqlint finding: %s", f)
		}
	}
	if len(pq) != 3 {
		t.Fatalf("want 3 annotation diagnostics, got %d: %v", len(pq), pq)
	}
	wants := []string{
		"takes no payload",
		"unknown pqlint directive \"frobnicate\" (want allow or noalloc)",
		"not attached to a function declaration",
	}
	for _, want := range wants {
		found := false
		for _, f := range pq {
			if strings.Contains(f.Message, want) {
				found = true
			}
		}
		if !found {
			t.Errorf("no annotation diagnostic mentioning %q in %v", want, pq)
		}
	}
	for _, f := range pq {
		if f.Suppressed {
			t.Errorf("annotation diagnostic must not be suppressible: %s", f)
		}
	}
}

// TestPqlintClean runs the full suite over the repository and asserts zero
// unsuppressed diagnostics, so CI fails the moment a determinism
// regression lands (make lint enforces the same gate standalone).
func TestPqlintClean(t *testing.T) {
	root, err := lint.FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.LoadModule(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 10 {
		t.Fatalf("module walk found only %d packages; loader is missing the tree", len(pkgs))
	}
	findings := lint.Run(pkgs, lint.Analyzers())
	for _, f := range lint.Unsuppressed(findings) {
		t.Errorf("%s", f)
	}
	// Suppressions must keep carrying their reasons.
	for _, f := range findings {
		if f.Suppressed && strings.TrimSpace(f.Reason) == "" {
			t.Errorf("suppressed without reason: %s", f)
		}
	}
}
