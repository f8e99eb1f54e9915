package faults

// InForce reports whether any fault is currently applied.
func (inj *Injector) InForce() bool {
	return inj.group != nil || inj.lossProb != 0 || inj.dupProb != 0 || inj.jitProb != 0 ||
		inj.blackhole != nil || inj.jammed != nil
}
