package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// NoAlloc turns the PR 5 runtime alloc-regression pins (testing.AllocsPerRun
// over the event free list, PHY arrival pools, frame-envelope pool, and
// stats Observe) into a compile-time guarantee: a function annotated
// pqlint:noalloc, and everything reachable from it through the call graph,
// is flagged for
//
//   - heap-escaping composite literals (&T{...}) and slice/map literals;
//   - the allocating builtins make and new;
//   - appends to slices that escape the function (field, captured, or
//     package-level bases — growing them allocates; appends to locals are
//     judged by the author via the runtime pins);
//   - closure values (func literals) and bound method values;
//   - interface boxing: passing, assigning, or returning a non-pointer-
//     shaped concrete value where an interface is expected;
//   - spawning goroutines.
//
// A pool's own refill/spill sites are real allocations by design — the
// pool trades a cold-path allocation for a hot-path pop — and are
// suppressed in place with //pqlint:allow noalloc(reason), which doubles
// as documentation of where the cold paths are. On a call's line the same
// directive also keeps the walk out of the callees: what a declared cold
// path, or caller-supplied code a hot path hands off to, goes on to do is
// not the hot path's.
var NoAlloc = &Analyzer{
	Name:       "noalloc",
	Doc:        "pqlint:noalloc-annotated hot paths must not allocate anywhere along the call chain",
	RunProgram: runNoAlloc,
}

func runNoAlloc(p *ProgramPass) {
	var roots []*FuncNode
	for _, n := range p.Graph.Nodes {
		if n.NoAlloc {
			roots = append(roots, n)
		}
	}
	p.walk(roots, func(n *FuncNode, chain []string) {
		checkNoAllocNode(p, n, chain)
	})
}

func checkNoAllocNode(p *ProgramPass, n *FuncNode, chain []string) {
	body := n.Body()
	if body == nil || n.Pkg.Info == nil {
		return
	}
	pv := p.view(n)
	via := ""
	if len(chain) > 1 {
		via = " [noalloc path " + strings.Join(chain, " -> ") + "]"
	}
	// Selectors in call position are calls, not method values.
	callFuns := make(map[ast.Node]bool)
	ast.Inspect(body, func(x ast.Node) bool {
		if call, ok := x.(*ast.CallExpr); ok {
			callFuns[unparen(call.Fun)] = true
		}
		return true
	})
	ast.Inspect(body, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.FuncLit:
			p.Reportf(x.Pos(), "closure allocates%s", via)
			return false // its body is a separate node if it is ever called
		case *ast.UnaryExpr:
			if lit, ok := unparen(x.X).(*ast.CompositeLit); ok && x.Op == token.AND {
				p.Reportf(x.Pos(), "heap-escaping composite literal &%s{...}%s", litTypeString(pv, lit), via)
				return false
			}
		case *ast.CompositeLit:
			if t := pv.TypeOf(x); t != nil {
				switch t.Underlying().(type) {
				case *types.Slice, *types.Map:
					p.Reportf(x.Pos(), "%s literal allocates%s", litTypeString(pv, x), via)
				}
			}
		case *ast.CallExpr:
			checkNoAllocCall(p, pv, x, via)
		case *ast.SelectorExpr:
			if callFuns[x] {
				return true
			}
			if sel, ok := n.Pkg.Info.Selections[x]; ok && sel.Kind() == types.MethodVal {
				p.Reportf(x.Pos(), "bound method value %s allocates a closure%s", types.ExprString(x), via)
			}
		case *ast.AssignStmt:
			for i, rhs := range x.Rhs {
				if i >= len(x.Lhs) {
					break
				}
				checkBoxing(p, pv, pv.TypeOf(x.Lhs[i]), rhs, via)
			}
		case *ast.ReturnStmt:
			sig := n.Signature()
			if sig == nil || len(x.Results) != sig.Results().Len() {
				return true
			}
			for i, res := range x.Results {
				checkBoxing(p, pv, sig.Results().At(i).Type(), res, via)
			}
		case *ast.GoStmt:
			p.Reportf(x.Pos(), "spawns a goroutine%s", via)
		}
		return true
	})
}

// checkNoAllocCall flags allocating builtins, escaping appends, and
// interface boxing at one call site.
func checkNoAllocCall(p *ProgramPass, pv *Pass, call *ast.CallExpr, via string) {
	if id, ok := unparen(call.Fun).(*ast.Ident); ok {
		switch id.Name {
		case "make":
			if _, isBuiltin := pv.ObjectOf(id).(*types.Builtin); isBuiltin || pv.Pkg.Info == nil {
				p.Reportf(call.Pos(), "make allocates%s", via)
				return
			}
		case "new":
			if _, isBuiltin := pv.ObjectOf(id).(*types.Builtin); isBuiltin || pv.Pkg.Info == nil {
				p.Reportf(call.Pos(), "new allocates%s", via)
				return
			}
		case "append":
			if len(call.Args) == 0 {
				return
			}
			base, through := writeBase(pv, call.Args[0])
			if base != nil && !through {
				// A bare local slice variable: its growth is private to
				// this frame and judged by the runtime pins. Anything
				// reached through a field, pointer, or capture escapes.
				if v, ok := pv.ObjectOf(base).(*types.Var); ok && !v.IsField() {
					if fn := enclosingFunc(pv.File.AST, call); fn != nil &&
						v.Pos() >= fn.Pos() && v.Pos() <= fn.End() {
						return
					}
				}
			}
			p.Reportf(call.Pos(), "append may grow the escaping slice %s%s", types.ExprString(call.Args[0]), via)
			return
		}
	}
	if id, ok := unparen(call.Fun).(*ast.Ident); ok {
		if _, isBuiltin := pv.ObjectOf(id).(*types.Builtin); isBuiltin {
			return // panic &c.: not a boxing site the pins care about
		}
	}
	sig, ok := pv.TypeOf(call.Fun).(*types.Signature)
	if !ok || sig.Params().Len() == 0 {
		return // conversions carry no signature
	}
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= sig.Params().Len()-1:
			if call.Ellipsis.IsValid() {
				continue // slice passed through, no per-element boxing
			}
			s, ok := sig.Params().At(sig.Params().Len() - 1).Type().(*types.Slice)
			if !ok {
				continue
			}
			pt = s.Elem()
		case i < sig.Params().Len():
			pt = sig.Params().At(i).Type()
		default:
			continue
		}
		checkBoxing(p, pv, pt, arg, via)
	}
}

// checkBoxing flags storing a non-pointer-shaped concrete value into an
// interface-typed slot — the conversion heap-allocates the value.
func checkBoxing(p *ProgramPass, pv *Pass, dst types.Type, src ast.Expr, via string) {
	if dst == nil || !types.IsInterface(dst) {
		return
	}
	st := pv.TypeOf(src)
	if st == nil || types.IsInterface(st) || pointerShaped(st) {
		return
	}
	p.Reportf(src.Pos(), "interface conversion boxes %s (type %s)%s", types.ExprString(src), st.String(), via)
}

// pointerShaped reports whether values of t fit in a pointer word and
// convert to an interface without allocating. Untyped constants are
// treated as pointer-shaped: nil never boxes, and other untyped literals
// in interface position are rare enough to leave to the runtime pins.
func pointerShaped(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature, *types.Interface:
		return true
	case *types.Basic:
		return u.Kind() == types.UnsafePointer || u.Info()&types.IsUntyped != 0
	}
	return false
}

// litTypeString renders a composite literal's type for diagnostics.
func litTypeString(pv *Pass, lit *ast.CompositeLit) string {
	if lit.Type != nil {
		return types.ExprString(lit.Type)
	}
	if t := pv.TypeOf(lit); t != nil {
		return t.String()
	}
	return "composite"
}
