package p_test

import (
	"testing"

	"twocopy/p"
	"twocopy/q"
)

// TestOneCopy passes the with-tests p's T to q, which must see that
// same p.
func TestOneCopy(t *testing.T) {
	if q.N(p.NewT()) != 1 {
		t.Fatal("fixture")
	}
}
