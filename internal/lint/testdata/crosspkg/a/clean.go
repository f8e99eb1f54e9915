// Package a holds the roots of the cross-package fixture: two noalloc hot
// paths and a ShardedEval callback. Nothing here is a violation; everything
// the roots must not do happens in package b, so a finding exists only if
// the call graph follows a static call, and an interface call whose only
// implementer lives there, across the package boundary.
package a

import "probquorum/internal/lint/testdata/crosspkg/b"

// Engine mimics sim.Engine's parallel API shape (see testdata/parsafe).
type Engine struct{}

// ShardedEval runs fn for every index, as the real engine does serially.
func (e *Engine) ShardedEval(n int, fn func(shard, i int)) {
	for i := 0; i < n; i++ {
		fn(0, i)
	}
}

// store is implemented by *b.Table only. Its method mentions a named type
// of b, as every interface between this module's layers does: the
// implementer is found only if b.Key is one type on both sides.
type store interface {
	Put(k b.Key)
}

// hotStatic reaches make through a static cross-package call.
//
//pqlint:noalloc
func hotStatic(t *b.Table, n int) int {
	t.Grow()
	return len(b.Scratch(n))
}

// hotIface reaches make through an interface call.
//
//pqlint:noalloc
func hotIface(s store, k b.Key) {
	s.Put(k)
}

// run's callback reaches a shared write and a declared per-item slot in b.
func run(e *Engine, t *b.Table) {
	e.ShardedEval(4, func(_, i int) {
		t.Bump()
		t.Mark(i)
	})
}
