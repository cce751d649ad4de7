package main

import "testing"

func TestOnly(t *testing.T) {
	if onlyTest() != 2 || allowed(shown{note: "n"}) != "n" {
		t.Fatal("fixture")
	}
}
