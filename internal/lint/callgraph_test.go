package lint

import (
	"path/filepath"
	"testing"
)

// TestCallGraphResolution is a white-box check of the resolution modes:
// static calls, calls through tracked func-valued fields, CHA interface
// dispatch, and a generic type's method and func-valued field, which resolve
// to their declarations across instantiations.
func TestCallGraphResolution(t *testing.T) {
	pkg, err := NewLoader().LoadDir(filepath.Join("testdata", "callgraph"))
	if err != nil {
		t.Fatal(err)
	}
	if len(pkg.TypeErrors) > 0 {
		t.Fatalf("fixture does not type-check: %v", pkg.TypeErrors)
	}
	g := buildCallGraph([]*Package{pkg}, nil)

	callees := func(name string) map[string]bool {
		for _, n := range g.Nodes {
			if n.Name == name {
				out := make(map[string]bool)
				for _, e := range n.Edges {
					out[e.Callee.Name] = true
				}
				return out
			}
		}
		t.Fatalf("no node for %s", name)
		return nil
	}
	drive := callees("callgraph.drive")
	for _, want := range []string{
		"callgraph.direct",       // static call
		"callgraph.handle",       // through the tracked func-valued field
		"callgraph.(*implA).Run", // CHA: pointer receiver implements runner
		"callgraph.(implB).Run",  // CHA: value receiver implements runner
		"callgraph.(*box).get",   // method of an instantiated generic type
	} {
		if !drive[want] {
			t.Errorf("drive is missing edge to %s (have %v)", want, drive)
		}
	}
	if drive["callgraph.setup"] {
		t.Errorf("drive has a spurious edge to setup (have %v)", drive)
	}
	// The field is assigned on box[int] and called on box[T].
	if get := callees("callgraph.(*box).get"); !get["callgraph.zero"] {
		t.Errorf("(*box).get is missing edge to zero (have %v)", get)
	}
}
