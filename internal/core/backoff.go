package gq

import (
	"time"

	"mpichgq/internal/sim"
)

// Backoff produces the retry schedule for the self-healing watchdog:
// exponential growth from Base by backoffFactor per failure, capped at
// Max, with bounded multiplicative jitter drawn from a sim RNG so
// repeated runs under one seed replay the same schedule and a fleet of
// agents under different seeds does not retry in lockstep.
type Backoff struct {
	// Base is the first retry interval.
	Base time.Duration
	// Max caps the un-jittered interval.
	Max time.Duration
	// Jitter bounds the multiplicative noise: each interval is scaled
	// by a factor in [1-Jitter, 1+Jitter] (default 0.2, 0 disables).
	Jitter float64

	rng  *sim.RNG
	n    int
	hint time.Duration
}

// backoffFactor is the per-failure growth multiplier.
const backoffFactor = 2

// NewBackoff returns a Backoff with the default jitter (±20%).
func NewBackoff(rng *sim.RNG, base, max time.Duration) *Backoff {
	return &Backoff{Base: base, Max: max, Jitter: 0.2, rng: rng}
}

// Next returns the interval to wait before the next attempt and
// advances the schedule. A pending Hint floors the result: the server
// told us when it will have capacity, so jitter must not sneak the
// retry in earlier than that.
func (b *Backoff) Next() time.Duration {
	d := float64(b.Base)
	for i := 0; i < b.n; i++ {
		d *= backoffFactor
		if d >= float64(b.Max) {
			break
		}
	}
	if d > float64(b.Max) {
		d = float64(b.Max)
	}
	b.n++
	if b.Jitter > 0 && b.rng != nil {
		d *= b.rng.Jitter(b.Jitter)
	}
	out := time.Duration(d)
	if h := b.hint; h > 0 {
		b.hint = 0
		if out < h {
			out = h
		}
	}
	return out
}

// Hint floors the next interval at d — used for a server's retry-after
// from an overload rejection (ErrOverloaded). The hint is one-shot: it
// applies to the next Next() only, overriding the computed schedule
// (and its jitter) when that would retry sooner than the server asked.
func (b *Backoff) Hint(d time.Duration) {
	if d > b.hint {
		b.hint = d
	}
}

// Reset restarts the schedule from Base, called after a success.
func (b *Backoff) Reset() { b.n = 0; b.hint = 0 }
