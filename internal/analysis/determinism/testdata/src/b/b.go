// Package b is the negative fixture: it does not import the
// simulation kernel, so it is not kernel-driven and the determinism
// analyzer must stay silent even though it uses wall-clock time,
// ambient randomness, goroutines, and package-level state.
package b

import (
	"math/rand"
	"time"
)

func Wall() time.Time { return time.Now() } // ok: not kernel-driven

func Roll() int { return rand.Intn(6) } // ok: not kernel-driven

func Spawn(f func()) { go f() } // ok: not kernel-driven

// Hits is package state another fixture writes through a qualified
// name.
var Hits int

func Hit() { Hits++ } // ok: not kernel-driven
