package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"strconv"
	"strings"
)

// This file builds pqlint's whole-program call graph, the substrate of the
// noalloc analyzer. The graph is class-hierarchy style and
// deliberately over-approximates: every call site gets edges to every
// function it *could* reach, so a walk from a root visits a superset of
// the functions that can actually execute. Resolution rules:
//
//   - static calls (pkg.F(), F(), and method calls whose receiver type is
//     concrete) resolve to the single named function;
//   - interface method calls resolve to every module method with the same
//     name whose receiver type implements the interface (CHA);
//   - calls through function-valued variables and struct fields resolve to
//     the set of functions ever assigned to that specific object, tracked
//     through assignments, var initializers, and composite-literal fields;
//   - calls through function values with no tracked assignment fall back
//     to every address-taken function with an identical signature;
//   - a method or field of an instantiated generic type resolves to its
//     declaration (Origin): a call to Pool[*Event].Get reaches the body of
//     Pool[T].Get, and a func-valued field assigned on one instantiation is
//     the field every instantiation calls through.
//
// Only the module's own type-checked, non-test files contribute nodes;
// calls into the standard library are opaque (assumed pure and
// non-allocating — the per-file analyzers police the stdlib APIs that
// matter for determinism). examples/ sit outside the graph entirely.

// FuncNode is one function in the call graph: a declared function or
// method (Decl/Obj set) or a function literal (Lit set).
type FuncNode struct {
	Pkg  *Package
	File *SourceFile
	Decl *ast.FuncDecl
	Lit  *ast.FuncLit
	Obj  *types.Func // nil for literals
	// Name is the display name used in diagnostics (module-relative).
	Name string
	// Edges are the node's possible callees, one per call site and callee,
	// in source order.
	Edges []Edge

	// NoAlloc marks a pqlint:noalloc-annotated declaration (see
	// directive.go), a root of the noalloc walk.
	NoAlloc bool
}

// Body returns the node's body block.
func (n *FuncNode) Body() *ast.BlockStmt {
	if n.Decl != nil {
		return n.Decl.Body
	}
	return n.Lit.Body
}

// Signature returns the node's function signature, or nil without type
// information.
func (n *FuncNode) Signature() *types.Signature {
	if n.Obj != nil {
		if sig, ok := n.Obj.Type().(*types.Signature); ok {
			return sig
		}
		return nil
	}
	if n.Pkg.Info == nil {
		return nil
	}
	if sig, ok := n.Pkg.Info.TypeOf(n.Lit).(*types.Signature); ok {
		return sig
	}
	return nil
}

// Edge is one possible call from a node to a callee.
type Edge struct {
	Callee *FuncNode
	// Site is the call expression's position.
	Site token.Pos
}

// CallGraph is the module's whole-program call graph.
type CallGraph struct {
	Fset  *token.FileSet
	Nodes []*FuncNode

	byObj map[*types.Func]*FuncNode
	byLit map[*ast.FuncLit]*FuncNode
	// methodsByName indexes module methods for CHA interface resolution.
	methodsByName map[string][]*FuncNode
	// assigned maps a function-typed variable or struct field to every
	// function value ever stored in it.
	assigned map[types.Object][]*FuncNode
	// addrTaken lists functions referenced outside call position, in
	// deterministic encounter order — the fallback callee set for calls
	// through untracked function values.
	addrTaken []*FuncNode
}

// buildCallGraph constructs the graph over pkgs' typed non-test files,
// claiming each file's noalloc annotations for the declarations they sit on.
func buildCallGraph(pkgs []*Package, directives map[string]*directiveSet) *CallGraph {
	g := &CallGraph{
		byObj:         make(map[*types.Func]*FuncNode),
		byLit:         make(map[*ast.FuncLit]*FuncNode),
		methodsByName: make(map[string][]*FuncNode),
		assigned:      make(map[types.Object][]*FuncNode),
	}
	for _, pkg := range pkgs {
		if pkg.Info == nil || pkg.Example {
			continue
		}
		if g.Fset == nil {
			g.Fset = pkg.Fset
		}
		for _, file := range pkg.Files {
			if file.Test {
				continue
			}
			g.collectNodes(pkg, file, directives[file.Name])
		}
	}
	for _, pkg := range pkgs {
		if pkg.Info == nil || pkg.Example {
			continue
		}
		for _, file := range pkg.Files {
			if file.Test {
				continue
			}
			g.collectReferences(pkg, file)
		}
	}
	for _, n := range g.Nodes {
		g.collectEdges(n)
	}
	return g
}

// collectNodes registers every function declaration and literal in file.
func (g *CallGraph) collectNodes(pkg *Package, file *SourceFile, ds *directiveSet) {
	ast.Inspect(file.AST, func(n ast.Node) bool {
		switch fn := n.(type) {
		case *ast.FuncDecl:
			if fn.Body == nil {
				return true
			}
			node := &FuncNode{Pkg: pkg, File: file, Decl: fn, Name: declName(pkg, fn), NoAlloc: ds.noAllocDecl(pkg.Fset, fn)}
			if obj, ok := pkg.Info.Defs[fn.Name].(*types.Func); ok {
				node.Obj = obj
				g.byObj[obj] = node
				if fn.Recv != nil {
					g.methodsByName[fn.Name.Name] = append(g.methodsByName[fn.Name.Name], node)
				}
			}
			g.Nodes = append(g.Nodes, node)
		case *ast.FuncLit:
			pos := pkg.Fset.Position(fn.Pos())
			node := &FuncNode{
				Pkg: pkg, File: file, Lit: fn,
				Name: pkgDisplayName(pkg) + ".func@" + filepath.Base(pos.Filename) + ":" + strconv.Itoa(pos.Line),
			}
			g.byLit[fn] = node
			g.Nodes = append(g.Nodes, node)
		}
		return true
	})
}

// collectReferences records function-value assignments and address-taken
// functions across file (including package-level var initializers).
func (g *CallGraph) collectReferences(pkg *Package, file *SourceFile) {
	// Idents and selectors appearing as a call's Fun are calls, not value
	// references; collect them first so the reference pass can skip them.
	callFuns := make(map[ast.Node]bool)
	ast.Inspect(file.AST, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			callFuns[unparen(call.Fun)] = true
		}
		return true
	})
	record := func(lhs ast.Expr, rhs ast.Expr) {
		fn := g.funcValue(pkg, rhs)
		if fn == nil {
			return
		}
		if obj := origin(objOfExpr(pkg, lhs)); obj != nil {
			g.assigned[obj] = append(g.assigned[obj], fn)
		}
	}
	seen := make(map[*FuncNode]bool)
	ast.Inspect(file.AST, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				if i < len(n.Lhs) {
					record(n.Lhs[i], rhs)
				}
			}
		case *ast.ValueSpec:
			for i, rhs := range n.Values {
				if i < len(n.Names) {
					record(n.Names[i], rhs)
				}
			}
		case *ast.KeyValueExpr:
			record(n.Key, n.Value)
		case *ast.Ident:
			if callFuns[n] {
				return true
			}
			if obj, ok := pkg.Info.Uses[n].(*types.Func); ok {
				if fn := g.node(obj); fn != nil && !seen[fn] {
					seen[fn] = true
					g.addrTaken = append(g.addrTaken, fn)
				}
			}
		case *ast.SelectorExpr:
			if callFuns[n] {
				return true
			}
			if fn := g.funcValue(pkg, n); fn != nil && !seen[fn] {
				seen[fn] = true
				g.addrTaken = append(g.addrTaken, fn)
			}
		case *ast.FuncLit:
			if fn := g.byLit[n]; fn != nil && !seen[fn] {
				seen[fn] = true
				g.addrTaken = append(g.addrTaken, fn)
			}
		}
		return true
	})
}

// node returns the node of a declared function or method, nil for one outside
// the module. A method of an instantiated generic type is an object of its
// own; Origin maps it to the declared one (and is the identity otherwise).
func (g *CallGraph) node(obj *types.Func) *FuncNode {
	return g.byObj[obj.Origin()]
}

// origin maps a field or variable of an instantiated generic type to its
// declaration, so that assignments and calls through it share one key.
func origin(obj types.Object) types.Object {
	if v, ok := obj.(*types.Var); ok && v != nil {
		return v.Origin()
	}
	return obj
}

// funcValue resolves an expression used as a function value to its node:
// a literal, a named function, or a method value. Returns nil when the
// expression is not a direct module-function reference.
func (g *CallGraph) funcValue(pkg *Package, e ast.Expr) *FuncNode {
	switch e := unparen(e).(type) {
	case *ast.FuncLit:
		return g.byLit[e]
	case *ast.Ident:
		if obj, ok := pkg.Info.Uses[e].(*types.Func); ok {
			return g.node(obj)
		}
	case *ast.SelectorExpr:
		if sel, ok := pkg.Info.Selections[e]; ok && sel.Kind() == types.MethodVal {
			if obj, ok := sel.Obj().(*types.Func); ok {
				return g.node(obj)
			}
			return nil
		}
		if obj, ok := pkg.Info.Uses[e.Sel].(*types.Func); ok {
			return g.node(obj)
		}
	}
	return nil
}

// collectEdges resolves every call in n's body (excluding nested literals,
// which are their own nodes) to its possible callees.
func (g *CallGraph) collectEdges(n *FuncNode) {
	body := n.Body()
	if body == nil || n.Pkg.Info == nil {
		return
	}
	ast.Inspect(body, func(x ast.Node) bool {
		if lit, ok := x.(*ast.FuncLit); ok && lit != n.Lit {
			return false // nested literal: its own node covers its body
		}
		call, ok := x.(*ast.CallExpr)
		if !ok {
			return true
		}
		for _, callee := range g.callees(n.Pkg, call) {
			n.Edges = append(n.Edges, Edge{Callee: callee, Site: call.Pos()})
		}
		return true
	})
}

// callees resolves one call expression to its possible target nodes.
func (g *CallGraph) callees(pkg *Package, call *ast.CallExpr) []*FuncNode {
	info := pkg.Info
	switch fun := unparen(call.Fun).(type) {
	case *ast.FuncLit:
		if n := g.byLit[fun]; n != nil {
			return []*FuncNode{n}
		}
		return nil
	case *ast.Ident:
		switch obj := info.Uses[fun].(type) {
		case *types.Func:
			if n := g.node(obj); n != nil {
				return []*FuncNode{n}
			}
			return nil // stdlib or external: opaque
		case *types.Var:
			return g.funcValueCallees(pkg, call, obj)
		case *types.Builtin, *types.TypeName, nil:
			return nil
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			switch sel.Kind() {
			case types.FieldVal:
				obj, _ := sel.Obj().(*types.Var)
				return g.funcValueCallees(pkg, call, obj)
			case types.MethodVal, types.MethodExpr:
				obj, _ := sel.Obj().(*types.Func)
				if obj == nil {
					return nil
				}
				if recv := sel.Recv(); recv != nil && types.IsInterface(recv) {
					return g.implementers(obj.Name(), recv)
				}
				if n := g.node(obj); n != nil {
					return []*FuncNode{n}
				}
				return nil
			}
		}
		// Package-qualified reference (pkg.F or pkg.Var).
		switch obj := info.Uses[fun.Sel].(type) {
		case *types.Func:
			if n := g.node(obj); n != nil {
				return []*FuncNode{n}
			}
			return nil
		case *types.Var:
			return g.funcValueCallees(pkg, call, obj)
		}
	default:
		// Call of a computed function value (call result, index
		// expression, type conversion result): fall back to the
		// signature-matched address-taken set. Conversions of non-func
		// types yield no signature and no edges.
		return g.funcValueCallees(pkg, call, nil)
	}
	return nil
}

// funcValueCallees resolves a call through a function value: the tracked
// assignment set of obj when available, otherwise every address-taken
// function whose signature matches the call.
func (g *CallGraph) funcValueCallees(pkg *Package, call *ast.CallExpr, obj types.Object) []*FuncNode {
	if obj := origin(obj); obj != nil {
		if set := g.assigned[obj]; len(set) > 0 {
			return set
		}
	}
	sig, _ := pkg.Info.TypeOf(call.Fun).(*types.Signature)
	if sig == nil {
		return nil
	}
	var out []*FuncNode
	for _, cand := range g.addrTaken {
		if sigMatches(sig, cand.Signature()) {
			out = append(out, cand)
		}
	}
	return out
}

// implementers returns every module method named name whose receiver type
// implements the interface recv — the CHA resolution of an interface call.
func (g *CallGraph) implementers(name string, recv types.Type) []*FuncNode {
	iface, ok := recv.Underlying().(*types.Interface)
	if !ok {
		return nil
	}
	var out []*FuncNode
	for _, cand := range g.methodsByName[name] {
		sig := cand.Signature()
		if sig == nil || sig.Recv() == nil {
			continue
		}
		rt := sig.Recv().Type()
		if types.Implements(rt, iface) || types.Implements(types.NewPointer(rt), iface) {
			out = append(out, cand)
		}
	}
	return out
}

// sigMatches reports whether two signatures agree on parameters and
// results (receivers excluded). Unknown signatures match conservatively.
func sigMatches(a, b *types.Signature) bool {
	if a == nil || b == nil {
		return true
	}
	if a.Variadic() != b.Variadic() ||
		a.Params().Len() != b.Params().Len() ||
		a.Results().Len() != b.Results().Len() {
		return false
	}
	for i := 0; i < a.Params().Len(); i++ {
		if !types.Identical(a.Params().At(i).Type(), b.Params().At(i).Type()) {
			return false
		}
	}
	for i := 0; i < a.Results().Len(); i++ {
		if !types.Identical(a.Results().At(i).Type(), b.Results().At(i).Type()) {
			return false
		}
	}
	return true
}

// walk runs a breadth-first traversal from roots, calling visit once per
// reachable node with the call chain (node names from the root, inclusive)
// that first reached it. cut prunes a call edge, and with it whatever only
// cut edges reach; it is asked about every edge out of a visited node.
func (g *CallGraph) walk(roots []*FuncNode, cut func(Edge) bool, visit func(n *FuncNode, chain []string)) {
	type item struct {
		node  *FuncNode
		chain []string
	}
	visited := make(map[*FuncNode]bool)
	var queue []item
	for _, r := range roots {
		if r == nil || visited[r] {
			continue
		}
		visited[r] = true
		queue = append(queue, item{r, []string{r.Name}})
	}
	for len(queue) > 0 {
		it := queue[0]
		queue = queue[1:]
		visit(it.node, it.chain)
		for _, e := range it.node.Edges {
			if cut(e) || visited[e.Callee] {
				continue
			}
			visited[e.Callee] = true
			chain := append(append([]string(nil), it.chain...), e.Callee.Name)
			queue = append(queue, item{e.Callee, chain})
		}
	}
}

// objOfExpr resolves an assignment target to its object (variable or
// struct field), or nil for unresolvable targets.
func objOfExpr(pkg *Package, e ast.Expr) types.Object {
	switch e := unparen(e).(type) {
	case *ast.Ident:
		if obj := pkg.Info.ObjectOf(e); obj != nil {
			return obj
		}
	case *ast.SelectorExpr:
		if obj := pkg.Info.ObjectOf(e.Sel); obj != nil {
			return obj
		}
	}
	return nil
}

// declName renders a declaration's diagnostic name: pkg.Func or
// pkg.(*Recv).Method, with the module prefix trimmed.
func declName(pkg *Package, fn *ast.FuncDecl) string {
	name := pkgDisplayName(pkg) + "."
	if fn.Recv != nil && len(fn.Recv.List) > 0 {
		recv := typeExprString(fn.Recv.List[0].Type)
		name += "(" + recv + ")."
	}
	return name + fn.Name.Name
}

// pkgDisplayName returns the short package name used in diagnostics.
func pkgDisplayName(pkg *Package) string {
	if i := strings.LastIndex(pkg.ImportPath, "/"); i >= 0 {
		return pkg.ImportPath[i+1:]
	}
	return pkg.ImportPath
}

// typeExprString renders a receiver type expression compactly.
func typeExprString(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.StarExpr:
		return "*" + typeExprString(e.X)
	case *ast.IndexExpr:
		return typeExprString(e.X)
	case *ast.IndexListExpr:
		return typeExprString(e.X)
	}
	return "?"
}

// unparen strips parentheses from an expression.
func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}
