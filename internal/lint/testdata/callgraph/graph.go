package fixture

type runner interface {
	Run()
}

type implA struct{ n int }

func (x *implA) Run() { x.n++ }

type implB struct{}

func (implB) Run() {}

type holder struct {
	fn func(int)
}

func direct() {}

func handle(i int) {}

func setup(h *holder) {
	h.fn = handle
}

// box is generic: its func-valued field is assigned on an instantiation
// and called through inside the generic method.
type box[T any] struct {
	make func() T
}

func (b *box[T]) get() T { return b.make() }

func zero() int { return 0 }

func newBox() *box[int] { return &box[int]{make: zero} }

func drive(h *holder, r runner, b *box[int]) {
	direct()
	h.fn(3)
	r.Run()
	b.get()
}
