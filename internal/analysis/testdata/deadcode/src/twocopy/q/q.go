// Package q imports the two-copies fixture's package under test.
package q

import "twocopy/p"

// N reads a T.
func N(t p.T) int { return t.N }
