package fixture

type node struct {
	next *node
	val  int
}

type pool struct {
	free []*node
	sink any
}

// get pops from the pool; its callee refill allocates, which must be
// surfaced through the call chain.
//
//pqlint:noalloc
func (p *pool) get() *node {
	if len(p.free) == 0 {
		p.refill()
	}
	n := p.free[len(p.free)-1]
	p.free = p.free[:len(p.free)-1]
	return n
}

// refill is unannotated but reachable from get.
func (p *pool) refill() {
	p.free = append(p.free, &node{})
}

//pqlint:noalloc
func (p *pool) put(n *node) {
	p.sink = n.val
	cb := func() { n.val++ }
	cb()
	f := p.refill
	_ = f
	grow(p)
}

// grow is reachable from put.
func grow(p *pool) {
	m := make(map[int]*node)
	m[0] = p.get()
}

// stack is generic: a call to push on an instantiation must reach push's
// declaration, and the allocation in it.
type stack[T any] struct {
	items []T
}

func (s *stack[T]) push(x T) {
	s.items = append(s.items, x)
}

//pqlint:noalloc
func pushNode(s *stack[*node], n *node) {
	s.push(n)
}
