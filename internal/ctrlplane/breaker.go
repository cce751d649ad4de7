package ctrlplane

import (
	"time"

	gq "mpichgq/internal/core"
	"mpichgq/internal/metrics"
	"mpichgq/internal/sim"
)

// BreakerState is a circuit breaker's position.
type BreakerState int

// Breaker states. The gauge ctrl_breaker_state exports the numeric
// value.
const (
	// BreakerClosed: calls flow normally.
	BreakerClosed BreakerState = iota
	// BreakerOpen: calls are rejected without touching the RM until
	// the cooldown elapses.
	BreakerOpen
	// BreakerHalfOpen: the cooldown elapsed; probe calls are let
	// through. A success closes the breaker, a failure re-opens it.
	BreakerHalfOpen
)

func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	default:
		return "unknown"
	}
}

// Interned state names for EvCtrlBreaker events.
var breakerStateNames = [...]string{
	BreakerClosed:   "closed",
	BreakerOpen:     "open",
	BreakerHalfOpen: "half-open",
}

// Breaker is a per-RM circuit breaker: Threshold consecutive failed
// calls (whole RPCs that exhausted their deadline, not individual
// attempt timeouts) trip it open; after Cooldown it half-opens and
// lets a probe through; the probe's outcome closes or re-opens it.
// Allow is also the watchdog's RepairGate — a tripped breaker stops
// the self-healing loop from hammering an RM that is already timing
// out.
type Breaker struct {
	k *sim.Kernel

	// Threshold is the consecutive-failure count that trips the
	// breaker (default 4).
	Threshold int
	// Cooldown is how long the breaker stays open before allowing a
	// probe (default 2s).
	Cooldown time.Duration

	state    BreakerState
	fails    int
	openedAt time.Duration

	gauge  *metrics.Gauge
	mTrips *metrics.Counter
	rec    *metrics.Recorder
}

// Breaker satisfies the watchdog's repair gate.
var _ gq.RepairGate = (*Breaker)(nil)

// NewBreaker returns a closed breaker for the named RM.
func NewBreaker(k *sim.Kernel, name string, threshold int, cooldown time.Duration) *Breaker {
	if threshold <= 0 {
		threshold = 4
	}
	if cooldown <= 0 {
		cooldown = 2 * time.Second
	}
	reg := k.Metrics()
	b := &Breaker{
		k: k, Threshold: threshold, Cooldown: cooldown,
		gauge: reg.Gauge("ctrl_breaker_state",
			"per-RM circuit breaker position (0 closed, 1 open, 2 half-open)", "rm", name),
		mTrips: reg.Counter("ctrl_breaker_trips_total",
			"circuit breaker trips", "rm", name),
		rec: reg.Events(),
	}
	b.gauge.Set(0)
	return b
}

// State returns the breaker's current position (open transitions to
// half-open lazily, on the first Allow after the cooldown).
func (b *Breaker) State() BreakerState { return b.state }

// Failures returns the current consecutive-failure count.
func (b *Breaker) Failures() int { return b.fails }

// Allow reports whether a call may proceed. While open it rejects
// until the cooldown elapses, then half-opens and admits probes.
// Implements gq.RepairGate.
func (b *Breaker) Allow() bool {
	switch b.state {
	case BreakerClosed:
		return true
	case BreakerOpen:
		if b.k.Now() >= b.openedAt+b.Cooldown {
			b.set(BreakerHalfOpen)
			return true
		}
		return false
	default: // half-open: probes allowed
		return true
	}
}

// Success records a successful call, closing the breaker.
func (b *Breaker) Success() {
	b.fails = 0
	if b.state != BreakerClosed {
		b.set(BreakerClosed)
	}
}

// Failure records a failed (timed-out) call. A half-open probe failure
// re-opens immediately; Threshold consecutive failures trip a closed
// breaker.
func (b *Breaker) Failure() {
	b.fails++
	if b.state == BreakerHalfOpen || (b.state == BreakerClosed && b.fails >= b.Threshold) {
		b.openedAt = b.k.Now()
		b.mTrips.Inc()
		b.set(BreakerOpen)
	}
}

func (b *Breaker) set(s BreakerState) {
	b.state = s
	b.gauge.Set(float64(s))
	b.rec.Emit(metrics.EvCtrlBreaker, breakerStateNames[s], int64(b.fails), 0, 0)
}
