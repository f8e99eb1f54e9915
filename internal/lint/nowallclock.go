package lint

import (
	"go/ast"
)

// wallClockFuncs are the functions whose result differs from run to run:
// the time package's that observe or wait on the wall clock, and the
// process id (the other classic seed of a detached RNG). Pure constructors
// and conversions (time.Duration, time.Unix, time.Date) are allowed: they
// are deterministic.
var wallClockFuncs = map[string]bool{
	"time.Now": true, "time.Sleep": true, "time.After": true, "time.Tick": true,
	"time.NewTimer": true, "time.NewTicker": true, "time.AfterFunc": true,
	"time.Since": true, "time.Until": true,
	"os.Getpid": true,
}

// NoWallClock forbids wall-clock reads in simulation code. Simulated time
// is Engine.Now; real time differs per host and per run, so any wall-clock
// dependence — a timestamp in a table, a seed from time.Now().UnixNano() —
// breaks replay. Wall-clock timing is legal only in experiment
// reporting (per-figure wall clock in cmd/pqexp), allow-listed per file
// with a file-wide //pqlint:allow nowallclock(reason) directive before the
// package clause.
var NoWallClock = &Analyzer{
	Name:      "nowallclock",
	Doc:       "forbid time.Now/Sleep/After/Tick and os.Getpid in simulation code; simulated time is Engine.Now, seeds come from the engine",
	TestFiles: true,
	Run:       runNoWallClock,
}

func runNoWallClock(p *Pass) {
	ast.Inspect(p.File.AST, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		path, fn, ok := p.PkgFuncCall(call)
		if !ok || !wallClockFuncs[path+"."+fn] {
			return true
		}
		p.Reportf(call.Pos(), "%s.%s differs from run to run; simulation code must use the engine's clock and seed (Engine.Now / Schedule / NewStream)", path, fn)
		return true
	})
}
