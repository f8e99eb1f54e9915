package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"strings"
)

// SourceFile is one parsed file of a package.
type SourceFile struct {
	// Name is the file's path as given to the parser.
	Name string
	// AST is the parsed file, with comments.
	AST *ast.File
	// Test marks _test.go files, which are analyzed without types.
	Test bool
}

// Package is one loaded, parsed, and (best-effort) type-checked package.
type Package struct {
	// ImportPath is the package's import path within the module.
	ImportPath string
	// Dir is the package's directory.
	Dir string
	// Fset is the file set all positions resolve against.
	Fset *token.FileSet
	// Files holds the package's files; test files come after non-test
	// files and carry no type information.
	Files []*SourceFile
	// Info holds type information for the non-test files, or nil when
	// type-checking failed outright.
	Info *types.Info
	// TypeErrors collects type-checker diagnostics. Analysis proceeds on
	// partial information; a tree that builds with `go build` is clean.
	TypeErrors []error
	// Example marks packages under examples/, which sit outside the
	// simulation determinism boundary.
	Example bool

	// types is the checked package, handed to importers of ImportPath.
	types *types.Package
}

// Loader parses and type-checks the module's packages over one file set.
// An import of a module-local path is answered by loading that directory
// itself, memoised: every package is parsed and type-checked exactly once,
// dependencies first by recursion, and the *types.Package an importer sees
// is the one the analyzers see. A types.Func therefore has one identity
// across the module, which is what lets the call graph resolve static and
// interface calls across packages. Everything outside the module goes to
// the standard library's source importer.
type Loader struct {
	fset *token.FileSet
	std  types.Importer
	// root and modPath locate the module; set by the first load.
	root, modPath string
	// pkgs memoises loads by directory. A nil entry is a directory without
	// Go files, or one whose check is still running (an import cycle).
	pkgs map[string]*Package
}

// NewLoader returns a loader. Nothing needs pre-built export data: the
// module is checked from source by the loader, the standard library by the
// source importer.
func NewLoader() *Loader {
	fset := token.NewFileSet()
	return &Loader{fset: fset, std: importer.ForCompiler(fset, "source", nil), pkgs: make(map[string]*Package)}
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// importPkg resolves one import of a package under check.
func (l *Loader) importPkg(path string) (*types.Package, error) {
	rel, local := strings.CutPrefix(path, l.modPath)
	if !local || (rel != "" && rel[0] != '/') {
		return l.std.Import(path)
	}
	pkg, err := l.load(filepath.Join(l.root, filepath.FromSlash(rel)))
	if err != nil {
		return nil, err
	}
	if pkg == nil || pkg.types == nil {
		return nil, fmt.Errorf("lint: no Go package at %s (or an import cycle through it)", path)
	}
	return pkg.types, nil
}

// inModule records the module dir lies in; every load of one loader must
// stay inside it.
func (l *Loader) inModule(dir string) error {
	root, err := FindModuleRoot(dir)
	if err != nil || root == l.root {
		return err
	}
	if l.root != "" {
		return fmt.Errorf("lint: %s is outside the module at %s", dir, l.root)
	}
	l.root = root
	l.modPath, err = modulePath(root)
	return err
}

// FindModuleRoot walks up from dir to the directory containing go.mod.
func FindModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("lint: no go.mod above %s", dir)
		}
		dir = parent
	}
}

// modulePath reads the module path from root's go.mod.
func modulePath(root string) (string, error) {
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("lint: no module line in %s/go.mod", root)
}

// LoadModule loads every package under the module rooted at root,
// skipping testdata, hidden, and VCS directories, in directory order.
func (l *Loader) LoadModule(root string) ([]*Package, error) {
	if err := l.inModule(root); err != nil {
		return nil, err
	}
	var pkgs []*Package
	err := filepath.WalkDir(l.root, func(path string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		name := d.Name()
		if path != l.root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
			return filepath.SkipDir
		}
		pkg, err := l.load(path)
		if pkg != nil {
			pkgs = append(pkgs, pkg)
		}
		return err
	})
	return pkgs, err
}

// LoadDir loads the single package in dir (used for analyzer fixtures).
func (l *Loader) LoadDir(dir string) (*Package, error) {
	if err := l.inModule(dir); err != nil {
		return nil, err
	}
	pkg, err := l.load(dir)
	if err == nil && pkg == nil {
		err = fmt.Errorf("lint: no Go files in %s", dir)
	}
	return pkg, err
}

// load parses dir's Go files into one package and type-checks the non-test
// files, once per directory. It returns (nil, nil) when dir holds no Go
// files.
func (l *Loader) load(dir string) (*Package, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	if pkg, ok := l.pkgs[dir]; ok {
		return pkg, nil
	}
	l.pkgs[dir] = nil
	rel, err := filepath.Rel(l.root, dir)
	if err != nil {
		return nil, err
	}
	rel = filepath.ToSlash(rel)
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	importPath := l.modPath
	if rel != "." {
		importPath += "/" + rel
	}
	pkg := &Package{
		ImportPath: importPath,
		Dir:        dir,
		Fset:       l.fset,
		Example:    rel == "examples" || strings.HasPrefix(rel, "examples/"),
	}
	var typed []*ast.File
	// Non-test files first (they form the type-checked unit), then tests;
	// ReadDir returns the names sorted.
	for _, tests := range []bool{false, true} {
		for _, e := range entries {
			name := e.Name()
			if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") != tests {
				continue
			}
			path := filepath.Join(dir, name)
			f, err := parser.ParseFile(l.fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			pkg.Files = append(pkg.Files, &SourceFile{Name: path, AST: f, Test: tests})
			if !tests {
				typed = append(typed, f)
			}
		}
	}
	if len(pkg.Files) == 0 {
		return nil, nil
	}
	if len(typed) > 0 {
		pkg.Info = &types.Info{
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Defs:       make(map[*ast.Ident]types.Object),
			Uses:       make(map[*ast.Ident]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
		}
		conf := types.Config{
			Importer: importerFunc(l.importPkg),
			Error:    func(err error) { pkg.TypeErrors = append(pkg.TypeErrors, err) },
		}
		// Check fills info as far as it gets even on error; partial
		// information degrades analyzers gracefully rather than failing
		// the lint run.
		pkg.types, _ = conf.Check(pkg.ImportPath, l.fset, typed, pkg.Info)
	}
	l.pkgs[dir] = pkg
	return pkg, nil
}
