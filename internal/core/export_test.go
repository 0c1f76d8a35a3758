package core

// Test-only views of a Reference.

// Steps returns the total function invocations so far.
func (r *Reference) Steps() uint64 { return r.steps }
