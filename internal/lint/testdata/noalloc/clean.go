package fixture

type cleanPool struct {
	free []*node
}

// pop reuses pooled nodes without touching the heap; the empty-pool case
// returns nil instead of allocating.
//
//pqlint:noalloc
func (p *cleanPool) pop() *node {
	if len(p.free) == 0 {
		return nil
	}
	n := p.free[len(p.free)-1]
	p.free = p.free[:len(p.free)-1]
	n.val = 0
	return n
}

// handOff ends a hot path at code that is not part of it. The allow on the
// call's line keeps the walk out of the callee, so build's allocation is not
// charged to handOff.
//
//pqlint:noalloc
func (p *cleanPool) handOff() {
	if len(p.free) == 0 {
		p.free = build() //pqlint:allow noalloc(cold path: the pool is built once)
	}
}

func build() []*node { return []*node{{}} }
