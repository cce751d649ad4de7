package ctrlplane

import (
	"time"

	"mpichgq/internal/metrics"
	"mpichgq/internal/sim"
)

// Limiter is client-side adaptive concurrency: an AIMD window on
// in-flight calls, the client half of the overload-control contract.
// Successes grow the window additively (+1/window per completion, the
// TCP-Reno shape); an overload or deadline failure halves it. An
// overload's retry-after hint pauses new acquisitions entirely until
// the server's estimate of drain time has passed, so a fleet of
// adaptive clients converges on the server's capacity instead of
// storming it.
type Limiter struct {
	k    *sim.Kernel
	cond *sim.Cond

	// MinWindow..MaxWindow bound the AIMD window.
	MinWindow, MaxWindow float64

	window    float64
	inflight  int
	holdUntil time.Duration // no new acquisitions before this

	gWindow *metrics.Gauge
}

// NewLimiter returns a Limiter starting at min concurrency.
func NewLimiter(k *sim.Kernel, name string, min, max float64) *Limiter {
	if min < 1 {
		min = 1
	}
	if max < min {
		max = min
	}
	return &Limiter{
		k: k, cond: sim.NewCond(k),
		MinWindow: min, MaxWindow: max, window: min,
		gWindow: k.Metrics().Gauge("ctrl_aimd_window",
			"client AIMD concurrency window", "client", name),
	}
}

// TryAcquire takes an in-flight slot if one is free and no
// retry-after hold is in force, and reports whether it did. If not, it
// arranges for w to run once the caller should try again: when the
// hold ends, or when a Release or Cancel frees a slot. w's callback
// then calls TryAcquire again.
func (l *Limiter) TryAcquire(w *sim.Waiter) bool {
	if hold := l.holdUntil - l.k.Now(); hold > 0 {
		w.WakeAfter(hold)
		return false
	}
	if l.inflight < int(l.window) {
		l.inflight++
		return true
	}
	l.cond.Await(w)
	return false
}

// Cancel returns a slot without an AIMD signal: the caller abandoned
// the request before sending anything, so the exchange says nothing
// about server health.
func (l *Limiter) Cancel() {
	l.inflight--
	l.cond.Broadcast()
}

// Release returns a slot and adapts the window: additive increase on
// success, multiplicative decrease on failure. overloaded failures
// also install the server's retry-after as an acquisition hold.
func (l *Limiter) Release(ok bool, overloaded bool, retryAfter time.Duration) {
	l.inflight--
	if ok {
		l.window += 1 / l.window
		if l.window > l.MaxWindow {
			l.window = l.MaxWindow
		}
	} else {
		l.window /= 2
		if l.window < l.MinWindow {
			l.window = l.MinWindow
		}
		if overloaded && retryAfter > 0 {
			if until := l.k.Now() + retryAfter; until > l.holdUntil {
				l.holdUntil = until
			}
		}
	}
	l.gWindow.Set(l.window)
	l.cond.Broadcast()
}
