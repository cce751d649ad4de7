// Package p is the package under test of the dead-code guard's
// two-copies fixture (internal/analysis/deadcode_test.go): its external
// tests import it and q, which imports it too.
package p

// T is declared once; a second copy of p would declare it again.
type T struct{ N int }
