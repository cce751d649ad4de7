package p

// NewT is declared by an in-package test file, so only p checked with
// its tests has it.
func NewT() T { return T{N: 1} }
