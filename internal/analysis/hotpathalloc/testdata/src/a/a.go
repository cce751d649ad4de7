// Package a is the seeded-violation fixture for the hotpathalloc
// analyzer, scheduling against the real kernel API.
package a

import (
	"time"

	"mpichgq/internal/sim"
)

type conn struct {
	k   *sim.Kernel
	seq int
}

func (c *conn) fire(seq int) {}

// onTimer is the prebound form the pooled path wants.
func onTimer(a0, a1 any) { a0.(*conn).fire(a1.(int)) }

func schedule(c *conn, d time.Duration) {
	// ok: prebound package-level function, state via a0/a1.
	c.k.AfterFunc(d, onTimer, c, c.seq)
	c.k.AtFunc(d, sim.PrioNet, onTimer, c, c.seq)
	c.k.AfterPrioFunc(d, sim.PrioNormal, onTimer, c, c.seq)

	// ok: the closure-taking APIs are the designated slow path.
	c.k.After(d, func() { c.fire(c.seq) })

	c.k.AfterFunc(d, func(a0, a1 any) { // want `function literal passed to AfterFunc captures variables`
		c.fire(c.seq)
	}, nil, nil)

	c.k.AtFunc(d, sim.PrioNet, func(a0, a1 any) { // want `function literal passed to AtFunc: even capture-free`
		a0.(*conn).fire(a1.(int))
	}, c, c.seq)

	c.k.AfterPrioFunc(d, sim.PrioNormal, c.boundMethod, c, c.seq) // want `method value boundMethod passed to AfterPrioFunc allocates`
}

func (c *conn) boundMethod(a0, a1 any) {}

func suppressed(c *conn, d time.Duration) {
	//lint:ignore hotpathalloc fixture proves suppression works here too
	c.k.AfterFunc(d, func(a0, a1 any) { c.fire(0) }, nil, nil)
}
