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
	pkg, err := loader.LoadDir(filepath.Join("testdata", name))
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
func TestAnalyzerFixtures(t *testing.T) {
	wantPositives := map[string]int{
		"noglobalrand": 2, // rand.Float64, rand.Intn
		"nowallclock":  2, // time.Now, time.Sleep
		"detrange":     3, // RNG draw, scheduling, escaping append
		"floatequal":   2, // a == b, x != 0.5
		"seedplumb":    2, // wall-clock seed, pid seed (one per constructor)
		"parsafe":      4, // captured write, schedule, RNG draw, callee write
		"noalloc":      6, // escaping append, &lit, boxing, closure, method value, make
	}
	for _, az := range lint.Analyzers() {
		az := az
		t.Run(az.Name, func(t *testing.T) {
			pkg := loadFixture(t, az.Name)
			findings := lint.Run([]*lint.Package{pkg}, []*lint.Analyzer{az})
			perFile := make(map[string][]lint.Finding)
			for _, f := range findings {
				if f.Analyzer != az.Name {
					t.Errorf("unexpected analyzer %s in findings: %s", f.Analyzer, f)
					continue
				}
				perFile[filepath.Base(f.Pos.Filename)] = append(perFile[filepath.Base(f.Pos.Filename)], f)
			}

			positives := perFile["positive.go"]
			if got := len(lintUnsuppressed(positives)); got < wantPositives[az.Name] {
				t.Errorf("positive.go: got %d unsuppressed findings, want >= %d: %v",
					got, wantPositives[az.Name], positives)
			}
			for _, f := range positives {
				if f.Suppressed {
					t.Errorf("positive.go finding unexpectedly suppressed: %s", f)
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
}

func lintUnsuppressed(fs []lint.Finding) []lint.Finding { return lint.Unsuppressed(fs) }

// TestDirectiveErrors checks that malformed, reason-less, and
// unknown-analyzer directives are themselves diagnostics and cannot be
// suppressed.
func TestDirectiveErrors(t *testing.T) {
	pkg := loadFixture(t, "directive")
	findings := lint.Run([]*lint.Package{pkg}, lint.Analyzers())
	var pqlint []lint.Finding
	for _, f := range findings {
		if f.Analyzer == "pqlint" {
			pqlint = append(pqlint, f)
		}
	}
	if len(pqlint) != 3 {
		t.Fatalf("want 3 directive diagnostics, got %d: %v", len(pqlint), pqlint)
	}
	wants := []string{"malformed directive", "needs a non-empty reason", "unknown analyzer"}
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
// declaration. Every finding must come out suppressed with a reason.
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
	for _, az := range []string{"nowallclock", "detrange", "floatequal", "noalloc"} {
		if byAnalyzer[az] == 0 {
			t.Errorf("edge fixture never triggered %s (got %v)", az, byAnalyzer)
		}
	}
	// detrange and floatequal fire on the same line and are silenced by a
	// single two-directive comment; both must carry their own reason.
	var detReason, feqReason string
	for _, f := range findings {
		switch f.Analyzer {
		case "detrange":
			detReason = f.Reason
		case "floatequal":
			if strings.Contains(f.Reason, "sentinel") {
				feqReason = f.Reason
			}
		}
	}
	if detReason == feqReason {
		t.Errorf("multi-directive comment did not keep per-analyzer reasons: %q vs %q", detReason, feqReason)
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
	if len(pq) != 4 {
		t.Fatalf("want 4 annotation diagnostics, got %d: %v", len(pq), pq)
	}
	wants := []string{
		"needs a (reason) payload",
		"takes no payload",
		"unknown pqlint annotation \"frobnicate\" (want allow, parshared, or noalloc)",
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
