package lint

import (
	"go/ast"
)

// globalRandFuncs are the math/rand (and math/rand/v2) package-level
// functions that draw from the process-global source. rand.New,
// rand.NewSource &c. are allowed: constructing an explicitly seeded source
// is exactly how engine randomness is plumbed (nowallclock rejects the
// nondeterministic seeds: time.Now, os.Getpid).
var globalRandFuncs = map[string]bool{
	// math/rand
	"Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "Uint32": true, "Uint64": true,
	"Float32": true, "Float64": true, "ExpFloat64": true, "NormFloat64": true,
	"Perm": true, "Shuffle": true, "Seed": true, "Read": true,
	// math/rand/v2 additions
	"N": true, "IntN": true, "Int32": true, "Int32N": true,
	"Int64": true, "Int64N": true, "Uint": true, "UintN": true,
	"Uint32N": true, "Uint64N": true,
}

var randPkgPaths = map[string]bool{"math/rand": true, "math/rand/v2": true}

// NoGlobalRand forbids package-level math/rand draws. The engine's run
// isolation invariant (sim package doc) requires every random draw to come
// from an engine-seeded *rand.Rand; the global source is shared across
// engines and reseeds differently per process, so one stray rand.Intn
// breaks bit-identical replay and the parallel sweep's run independence.
var NoGlobalRand = &Analyzer{
	Name:      "noglobalrand",
	Doc:       "forbid package-level math/rand draws; randomness must flow from an engine-seeded *rand.Rand",
	TestFiles: true,
	Run:       runNoGlobalRand,
}

func runNoGlobalRand(p *Pass) {
	ast.Inspect(p.File.AST, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		path, fn, ok := p.PkgFuncCall(call)
		if !ok || !randPkgPaths[path] || !globalRandFuncs[fn] {
			return true
		}
		p.Reportf(call.Pos(), "package-level rand.%s draws from the process-global source; use the engine's seeded *rand.Rand (Engine.Rand or NewStream)", fn)
		return true
	})
}
