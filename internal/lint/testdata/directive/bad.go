package fixture

// malformed exercises every directive error path; each comment below is a
// diagnostic under the reserved "pqlint" analyzer.
func malformed() int {
	//pqlint:allow detrange
	x := 1
	//pqlint:allow detrange()
	x++
	//pqlint:allow nosuchanalyzer(reason text)
	x++
	//pqlint:allow detrange(nothing on this line or the next ranges over a map)
	return x
}
