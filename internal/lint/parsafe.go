package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// ParSafe enforces the parallel-phase purity contract from DESIGN.md §8:
// every function reachable from a sim.Engine.ShardedEval callback must be
// safe to run concurrently with its siblings and must keep results
// bit-identical at any shard width. Concretely, reachable code must not
//
//   - write state visible outside the callback invocation: any write whose
//     base is a captured or package-level variable, or a write through a
//     pointer-typed parameter/receiver (writes to locals are fine);
//   - schedule or send (Engine.Schedule/At, timers, protocol sends) — the
//     event queue is owned by the serial phases;
//   - draw randomness or create RNG streams — draw order would depend on
//     goroutine interleaving;
//   - spawn goroutines or touch channels.
//
// The sanctioned shared writes of a parallel phase — the per-item result
// slot, scratch indexed by the callback's shard argument, and the engine's
// per-chunk staging buffer inside Stage — are declared in place like any
// other reasoned exception:
//
//	m.out[i] = v //pqlint:allow parsafe(per-item result slot, disjoint per i)
//
// Roots are found by call-site shape — a method call named ShardedEval
// taking (int-like, func(int, int)) — so the analyzer needs no dependency on
// internal/sim and works on fixtures. Stage is the sanctioned effect
// boundary of the phase: it only stores the op, which runs serially at the
// commit barrier, so the walk ends there by itself.
var ParSafe = &Analyzer{
	Name:       "parsafe",
	Doc:        "code reachable from a ShardedEval callback must not write shared state, schedule, send, or draw RNG",
	RunProgram: runParSafe,
}

func runParSafe(p *ProgramPass) {
	g := p.Graph
	var roots []*FuncNode
	for _, n := range g.Nodes {
		body := n.Body()
		if body == nil || n.Pkg.Info == nil {
			continue
		}
		ast.Inspect(body, func(x ast.Node) bool {
			if _, ok := x.(*ast.FuncLit); ok {
				return false // scanned as its own node
			}
			call, ok := x.(*ast.CallExpr)
			if !ok || !isShardedEvalCall(n.Pkg, call) {
				return true
			}
			cbs := callbackNodes(g, n.Pkg, call.Args[1])
			if len(cbs) == 0 {
				p.Reportf(call.Args[1].Pos(), "cannot resolve the parallel-phase callback statically; pass a func literal, named func, or a tracked func-valued field")
			}
			roots = append(roots, cbs...)
			return true
		})
	}
	p.walk(roots, func(n *FuncNode, chain []string) {
		checkParSafeNode(p, n, chain)
	})
}

// isShardedEvalCall matches the ShardedEval call-site shape: a method call
// named ShardedEval taking (int-like, func(shard, i int)).
func isShardedEvalCall(pkg *Package, call *ast.CallExpr) bool {
	sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "ShardedEval" || len(call.Args) != 2 {
		return false
	}
	sig, ok := pkg.Info.TypeOf(call.Args[1]).(*types.Signature)
	if !ok || sig.Params().Len() != 2 || sig.Results().Len() != 0 {
		return false
	}
	for i := 0; i < 2; i++ {
		b, ok := sig.Params().At(i).Type().Underlying().(*types.Basic)
		if !ok || b.Info()&types.IsInteger == 0 {
			return false
		}
	}
	return true
}

// callbackNodes resolves a ShardedEval callback argument to its possible
// function nodes: a direct reference, the tracked assignment set of a
// func-valued variable or field, or — as a last resort — every
// address-taken function with a matching signature.
func callbackNodes(g *CallGraph, pkg *Package, e ast.Expr) []*FuncNode {
	if n := g.funcValue(pkg, e); n != nil {
		return []*FuncNode{n}
	}
	if obj := objOfExpr(pkg, e); obj != nil {
		if set := g.assigned[obj]; len(set) > 0 {
			return set
		}
	}
	sig, _ := pkg.Info.TypeOf(e).(*types.Signature)
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

func checkParSafeNode(p *ProgramPass, n *FuncNode, chain []string) {
	body := n.Body()
	if body == nil || n.Pkg.Info == nil {
		return
	}
	pv := p.view(n)
	via := ""
	if len(chain) > 1 {
		via = " [parallel phase, via " + strings.Join(chain, " -> ") + "]"
	}
	ast.Inspect(body, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.FuncLit:
			return false // a separate node; walked through its own edges
		case *ast.AssignStmt:
			for _, lhs := range x.Lhs {
				p.checkParallelWrite(pv, n, lhs, via)
			}
		case *ast.IncDecStmt:
			p.checkParallelWrite(pv, n, x.X, via)
		case *ast.CallExpr:
			if s := rngDraw(pv, x); s != "" {
				p.Reportf(x.Pos(), "draws randomness (%s) inside the parallel phase%s", s, via)
			}
			if s := scheduleOrSend(pv, x); s != "" {
				p.Reportf(x.Pos(), "schedules or sends (%s) inside the parallel phase%s", s, via)
			}
			if sel, ok := unparen(x.Fun).(*ast.SelectorExpr); ok {
				switch sel.Sel.Name {
				case "ShardedEval":
					if isShardedEvalCall(n.Pkg, x) {
						p.Reportf(x.Pos(), "nested ShardedEval inside the parallel phase%s", via)
					}
				case "NewStream":
					p.Reportf(x.Pos(), "creates an RNG stream inside the parallel phase%s", via)
				}
			}
		case *ast.GoStmt:
			p.Reportf(x.Pos(), "spawns a goroutine inside the parallel phase%s", via)
		case *ast.SendStmt:
			p.Reportf(x.Pos(), "sends on a channel inside the parallel phase%s", via)
		case *ast.UnaryExpr:
			if x.Op == token.ARROW {
				p.Reportf(x.Pos(), "receives from a channel inside the parallel phase%s", via)
			}
		}
		return true
	})
}

// checkParallelWrite classifies one assignment target. Writes to locals
// are always fine; writes whose base escapes the callback — captured or
// package-level variables, or stores through pointer-typed
// parameters/receivers — are shared-state hazards; a per-item or per-shard
// slot is declared with an allow directive on the write's line.
func (p *ProgramPass) checkParallelWrite(pv *Pass, n *FuncNode, lhs ast.Expr, via string) {
	base, through := writeBase(pv, lhs)
	if base == nil {
		if isBlank(lhs) {
			return
		}
		p.Reportf(lhs.Pos(), "writes through an unresolved expression %s inside the parallel phase%s", types.ExprString(lhs), via)
		return
	}
	if isBlank(base) {
		return
	}
	obj := pv.ObjectOf(base)
	v, ok := obj.(*types.Var)
	if !ok {
		return
	}
	body := n.Body()
	switch {
	case v.Pos() >= body.Pos() && v.Pos() <= body.End():
		return // local to this function: private to one callback invocation
	case v.Pos() >= n.Pos() && v.Pos() < body.Pos():
		// Parameter or receiver: rebinding the copy is fine, writing
		// through a pointer-typed one mutates caller-visible state.
		if !through {
			return
		}
	}
	what := "captured or package-level state"
	if v.Pos() >= n.Pos() && v.Pos() < body.Pos() {
		what = "caller-visible state through parameter " + quote(base.Name)
	}
	p.Reportf(lhs.Pos(), "writes %s (%s) inside the parallel phase%s; declare a per-item or per-shard slot with //pqlint:allow parsafe(reason), or move the write to a serial phase", what, types.ExprString(lhs), via)
}

// writeBase unwraps an assignment target to its base identifier, reporting
// whether the write dereferences a pointer, slice, or map along the way
// (i.e. lands in memory the base merely points to).
func writeBase(pv *Pass, e ast.Expr) (base *ast.Ident, through bool) {
	for {
		switch x := unparen(e).(type) {
		case *ast.Ident:
			return x, through
		case *ast.StarExpr:
			through = true
			e = x.X
		case *ast.SelectorExpr:
			if t := pv.TypeOf(x.X); t != nil {
				if _, ok := t.Underlying().(*types.Pointer); ok {
					through = true
				}
			}
			e = x.X
		case *ast.IndexExpr:
			if t := pv.TypeOf(x.X); t != nil {
				switch t.Underlying().(type) {
				case *types.Slice, *types.Map, *types.Pointer:
					through = true
				}
			}
			e = x.X
		default:
			return nil, through
		}
	}
}

func isBlank(e ast.Expr) bool {
	id, ok := unparen(e).(*ast.Ident)
	return ok && id.Name == "_"
}
