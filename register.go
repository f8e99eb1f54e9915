package probquorum

import "probquorum/internal/register"

// Shared read/write registers on biquorums (the paper's Section 10
// application). See internal/register for semantics: operations are
// probabilistically linearizable — each behaves atomically with
// probability ≥ 1−ε.
type (
	// Register is a named shared object over the cluster's quorum system.
	Register = register.Register
	// Versioned is a register value with its (version, writer) stamp.
	Versioned = register.Versioned
	// ReadResult is the outcome of a register read.
	ReadResult = register.ReadResult
)

// RegisterMerge is the conflict resolver registers need: install it as
// Config.Merge on the quorum configuration before building the cluster so
// replicas never let an older version overwrite a newer one (Section 6.1).
var RegisterMerge = register.Merge

// NewRegister binds a shared register named key to the cluster. For correct
// replica convergence the cluster should have been built with
// Config.Merge = RegisterMerge. writeBack enables read-repair (each read
// re-advertises the value it returns).
func (c *Cluster) NewRegister(key string, writeBack bool) *Register {
	return register.New(c.st.Sys, key, register.Config{WriteBack: writeBack})
}
