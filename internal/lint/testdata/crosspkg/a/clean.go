// Package a holds the roots of the cross-package fixture: two noalloc hot
// paths. Nothing here is a violation; everything
// the roots must not do happens in package b, so a finding exists only if
// the call graph follows a static call, and an interface call whose only
// implementer lives there, across the package boundary.
package a

import "probquorum/internal/lint/testdata/crosspkg/b"

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
