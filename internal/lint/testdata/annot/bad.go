package fixture

// bad exercises every annotation error path; each annotation below is a
// deliberate mistake and must surface as an unsuppressible "pqlint"
// diagnostic.

//pqlint:noalloc(payload)
func badNoAllocWithPayload() {}

//pqlint:frobnicate
func badUnknownVerb() {}

func badUnattached() {
	x := 0
	//pqlint:noalloc
	x++
	_ = x
}
