// Package main is the fixture of the dead-code guard's reachability
// and unused-state checks (internal/analysis/deadcode_test.go).
package main

import "fmt"

type shape interface{ area() int }

type square struct {
	side  int
	label string // want: written, never read
}

// area implements shape; nothing calls it by name.
func (s square) area() int { return s.side * s.side }

// point is a map key: its fields count as read.
type point struct{ x, y int }

// pair is compared with ==: its fields count as read.
type pair struct{ a, b int }

type inner struct{}

type config struct {
	Name  string   `json:"name"` // tagged: counts as read
	inner          // embedded: counts as read
	count int      // want: written, never read
	log   []string // want: appended to, never read
}

// shown is read only by allowed, which the allowlist keeps.
type shown struct{ note string }

const used = 2

const unused = 3 // want: referenced nowhere

type unusedType struct{} // want: referenced nowhere

func main() {
	s := square{side: used}
	s.label = "sq"
	var sh shape = s
	m := map[point]int{{x: 1, y: 2}: 1}
	p, q := pair{a: 1}, pair{b: 2}
	c := config{Name: "c", inner: inner{}}
	c.count++
	c.log = append(c.log, "started")
	fmt.Println(sh, len(m), p == q, reached())
}

// reached is reached from main; its allowlist entry is stale.
func reached() int { return 1 }

// onlyTest is called only by dead_test.go.
func onlyTest() int { return helper() } // want

// helper is called only by onlyTest.
func helper() int { return 2 } // want

// allowed is called only by dead_test.go but is allowlisted, and so
// is what it reaches.
func allowed(s shown) string { return allowedHelper(s.note) }

func allowedHelper(s string) string { return s }
