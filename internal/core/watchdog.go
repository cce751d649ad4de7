package gq

import (
	"fmt"
	"time"

	"mpichgq/internal/gara"
	"mpichgq/internal/metrics"
	"mpichgq/internal/mpi"
	"mpichgq/internal/nws"
	"mpichgq/internal/sim"
	"mpichgq/internal/spans"
	"mpichgq/internal/units"
)

// Watchdog phase names, interned for flight-recorder events
// (metrics.EvQosRepair: Subject=phase, V1=rank, V2=context id,
// V3=phase detail).
const (
	phaseBreach   = "breach"
	phaseRepair   = "repair"
	phaseFallback = "fallback"
	phaseUpgrade  = "upgrade"
	phaseGated    = "gated"
	phaseRebind   = "rebind"
)

// RepairGate lets an external health signal veto repair attempts — in
// practice a control-plane circuit breaker (ctrlplane.Breaker): when
// the domain's RM is timing out, hammering it with reservation calls
// only makes things worse. A gated attempt counts as a failure, so a
// watchdog stuck behind an open breaker still falls back to best
// effort instead of hot-looping against a dead RM. The interface is
// defined here (not in ctrlplane) so core does not depend on the
// control plane.
type RepairGate interface {
	// Allow reports whether a repair attempt may proceed now.
	Allow() bool
}

// Watchdog thresholds.
const (
	// breachFraction: a sample below breachFraction*Target counts as a
	// breach.
	breachFraction = 0.8
	// breachCount consecutive breach samples trigger the repair loop —
	// one bad forecast is noise, a run is an outage.
	breachCount = 3
	// fallbackAfter failed repair attempts demote the flow to best
	// effort.
	fallbackAfter = 4
)

// Watchdog is the self-healing extension of the QoS agent: it watches
// a premium communicator's achieved goodput (from the metrics layer,
// smoothed by an NWS forecaster) against the application's target and
// runs a repair loop when the guarantee breaks — typically because a
// fault degraded the underlying reservation. Repair attempts are
// paced by exponential backoff with jitter; if admission keeps
// refusing, the flow falls back to best effort (a degraded
// reservation holds no capacity anyway) and the watchdog keeps
// probing at the capped interval to upgrade back when capacity
// returns.
type Watchdog struct {
	agent *Agent
	rank  *mpi.Rank
	comm  *mpi.Comm
	// attr is the premium attribute to maintain and, after a
	// fallback, to restore.
	attr QosAttribute

	// Target is the application's desired payload goodput.
	Target units.BitRate
	// Backoff paces repair attempts.
	Backoff *Backoff
	// Gate, when set, is consulted before each repair attempt; a
	// refusal counts as a failed attempt (driving fallback) without
	// touching the resource manager.
	Gate RepairGate

	fc        *nws.Forecaster
	recv      *metrics.Counter
	lastBytes int64
	breaches  int
	rec       *metrics.Recorder
	tr        *spans.Tracer
	// episodes numbers breach→repair episodes so each gets its own
	// deterministic trace.
	episodes uint64
	// rebind is set by the rank-restart observer: a member of the
	// watched communicator came back in a new incarnation, so the
	// premium reservation covers stale endpoints and must be rebuilt
	// even though goodput may not yet register as breached.
	rebind bool

	repairs, fallbacks, upgrades, rebinds int
}

// NewWatchdog prepares self-healing for rank r's premium binding on c
// toward the given payload goodput target. The binding must already
// exist (AttrPut first). Goodput is measured at the receiving peer's
// mpi_recv_bytes_total counter; repairs act on r's binding.
func (a *Agent) NewWatchdog(r *mpi.Rank, c *mpi.Comm, target units.BitRate) (*Watchdog, error) {
	b, ok := a.Binding(r, c)
	if !ok {
		return nil, fmt.Errorf("gq: no QoS binding to watch on this communicator")
	}
	peer := -1
	for _, g := range c.Group() {
		if g != r.ID() {
			peer = g
		}
	}
	if peer < 0 {
		return nil, fmt.Errorf("gq: watchdog needs a two-party communicator")
	}
	k := a.g.Kernel()
	w := &Watchdog{
		agent:   a,
		rank:    r,
		comm:    c,
		attr:    b.Attr,
		Target:  target,
		Backoff: NewBackoff(sim.NewRNG(k.RNG().Int63()), 500*time.Millisecond, 4*time.Second),
		fc:      nws.NewForecaster(),
		recv:    a.job.Rank(peer).RecvBytesCounter(c),
		rec:     k.Metrics().Events(),
		tr:      k.Tracer(),
	}
	// Close the QoS loop on rank restart: when a member of the watched
	// communicator comes back, its flows run over new connections the
	// old reservation does not cover, so the next watchdog cycle
	// re-reserves through GARA rather than waiting for goodput decay.
	a.job.Notify(func(rank int, ev mpi.RankEvent) {
		if ev != mpi.RankRestarted || rank == w.rank.ID() {
			return
		}
		for _, g := range c.Group() {
			if g == rank {
				w.rebind = true
				return
			}
		}
	})
	return w, nil
}

// Run executes the watchdog in the calling process until dur elapses
// (or Stop). interval is the goodput sampling period; repair attempts
// run on the Backoff schedule instead while a breach is being
// handled.
func (w *Watchdog) Run(ctx *sim.Ctx, interval, dur time.Duration) {
	k := w.agent.g.Kernel()
	deadline := k.Now() + dur
	w.lastBytes = w.recv.Value()
	lastAt := k.Now()
	for k.Now() < deadline {
		ctx.Sleep(interval)
		w.sample(k.Now() - lastAt)
		lastAt = k.Now()
		if w.rebind {
			w.rebind = false
			w.episodes++
			trace := spans.DeriveTrace(spans.NSWatchdog,
				uint64(w.rank.ID())<<40|uint64(w.comm.Context())<<16|w.episodes)
			sp := w.tr.Begin(trace, 0, "wd.rebind", "watchdog")
			sp.Int("rank", int64(w.rank.ID())).
				Int("ctx", int64(w.comm.Context()))
			if w.rebuild() {
				w.rebinds++
				w.rec.Emit(metrics.EvQosRepair, phaseRebind,
					int64(w.rank.ID()), int64(w.comm.Context()), 0)
				sp.End()
			} else {
				// Re-admission refused; leave it to the breach machinery
				// (the unhealthy binding trips breachedNow immediately).
				sp.EndStatus(spans.StatusFailed)
			}
			// Goodput accounting restarts: samples spanning the outage
			// window would re-trigger on stale data.
			w.fc = nws.NewForecaster()
			w.breaches = 0
			w.lastBytes = w.recv.Value()
			lastAt = k.Now()
			continue
		}
		if w.breachedNow() {
			w.breaches++
		} else {
			w.breaches = 0
		}
		if w.breaches >= breachCount {
			w.rec.Emit(metrics.EvQosRepair, phaseBreach,
				int64(w.rank.ID()), int64(w.comm.Context()), int64(w.fc.Forecast()))
			w.episodes++
			trace := spans.DeriveTrace(spans.NSWatchdog,
				uint64(w.rank.ID())<<40|uint64(w.comm.Context())<<16|w.episodes)
			outage := w.tr.Begin(trace, 0, "wd.outage", "watchdog")
			outage.Int("rank", int64(w.rank.ID())).
				Int("ctx", int64(w.comm.Context())).
				Int("forecast_bps", int64(w.fc.Forecast()))
			w.repairLoop(ctx, deadline, outage)
			// Start goodput accounting afresh: forecasts from the
			// outage would re-trigger immediately.
			w.fc = nws.NewForecaster()
			w.breaches = 0
			w.lastBytes = w.recv.Value()
			lastAt = k.Now()
		}
	}
}

// sample appends one achieved-goodput observation (bits/s).
func (w *Watchdog) sample(elapsed time.Duration) {
	if elapsed <= 0 {
		return
	}
	cur := w.recv.Value()
	w.fc.Add(float64(cur-w.lastBytes) * 8 / elapsed.Seconds())
	w.lastBytes = cur
}

// breachedNow reports whether this instant looks broken: the binding
// lost a reservation (degraded or gone), or the smoothed goodput sits
// below the breach threshold.
func (w *Watchdog) breachedNow() bool {
	b, ok := w.agent.Binding(w.rank, w.comm)
	if !ok {
		return true
	}
	for _, res := range b.Reservations {
		if res.State() != gara.StateActive {
			return true
		}
	}
	if w.fc.Len() < 2 {
		return false
	}
	return w.fc.Forecast() < breachFraction*float64(w.Target)
}

// repairLoop retries restoration on the backoff schedule until it
// succeeds or the deadline passes. After fallbackAfter failures the
// flow is demoted to best effort; the loop keeps probing (at the
// capped interval) and upgrades back when admission succeeds again.
func (w *Watchdog) repairLoop(ctx *sim.Ctx, deadline time.Duration, outage *spans.Span) {
	k := w.agent.g.Kernel()
	trace := outage.TraceID()
	w.Backoff.Reset()
	failures := 0
	fellBack := false
	for k.Now() < deadline {
		if w.Gate != nil && !w.Gate.Allow() {
			// The control plane is known-bad; don't hammer it. The
			// skipped attempt still counts toward fallback.
			w.rec.Emit(metrics.EvQosRepair, phaseGated,
				int64(w.rank.ID()), int64(w.comm.Context()), int64(failures))
			w.tr.Begin(trace, outage.SpanID(), "wd.gated", "watchdog").
				Int("failures", int64(failures)).EndStatus(spans.StatusFailed)
			failures++
			if !fellBack && failures >= fallbackAfter {
				be := QosAttribute{Class: BestEffort}
				_ = w.agent.Apply(w.rank, w.comm, &be)
				fellBack = true
				w.fallbacks++
				w.rec.Emit(metrics.EvQosRepair, phaseFallback,
					int64(w.rank.ID()), int64(w.comm.Context()), int64(failures))
				w.tr.Begin(trace, outage.SpanID(), "wd.fallback", "watchdog").
					Int("failures", int64(failures)).End()
			}
			ctx.Sleep(w.Backoff.Next())
			continue
		}
		attempt := w.tr.Begin(trace, outage.SpanID(), "wd.attempt", "watchdog")
		attempt.Int("failures", int64(failures))
		if w.tryRestore() {
			phase := phaseRepair
			if fellBack {
				phase = phaseUpgrade
				w.upgrades++
			} else {
				w.repairs++
			}
			w.rec.Emit(metrics.EvQosRepair, phase,
				int64(w.rank.ID()), int64(w.comm.Context()), int64(failures))
			attempt.Str("phase", phase)
			attempt.End()
			w.Backoff.Reset()
			// The episode resolved, but the guarantee was still broken
			// for its duration: record the outage as breached.
			outage.Str("resolved", phase)
			outage.EndStatus(spans.StatusBreached)
			return
		}
		attempt.EndStatus(spans.StatusFailed)
		failures++
		if !fellBack && failures >= fallbackAfter {
			be := QosAttribute{Class: BestEffort}
			_ = w.agent.Apply(w.rank, w.comm, &be)
			fellBack = true
			w.fallbacks++
			w.rec.Emit(metrics.EvQosRepair, phaseFallback,
				int64(w.rank.ID()), int64(w.comm.Context()), int64(failures))
			w.tr.Begin(trace, outage.SpanID(), "wd.fallback", "watchdog").
				Int("failures", int64(failures)).End()
		}
		ctx.Sleep(w.Backoff.Next())
	}
	// Deadline or Stop without restoration: the outage never resolved.
	outage.Int("failures", int64(failures))
	outage.EndStatus(spans.StatusFailed)
}

// tryRestore attempts to bring the premium binding back to full
// health. Degraded reservations are reattached in place (cheap:
// re-admission on the current path); anything beyond that — a lost
// binding after fallback, or expired/cancelled handles — is rebuilt
// with a fresh reservation.
func (w *Watchdog) tryRestore() bool {
	b, ok := w.agent.Binding(w.rank, w.comm)
	if !ok {
		attr := w.attr
		return w.agent.Apply(w.rank, w.comm, &attr) == nil
	}
	healthy := true
	for _, res := range b.Reservations {
		switch res.State() {
		case gara.StateActive:
			// fine
		case gara.StateDegraded:
			if err := res.Reattach(); err != nil {
				healthy = false
			}
		default:
			healthy = false
		}
	}
	if healthy {
		return true
	}
	// In-place repair failed; rebuild from scratch. Losing the race
	// here leaves no binding, and the next attempt takes the
	// fresh-install path above.
	return w.rebuild()
}

// rebuild tears the binding down to best effort and re-applies the
// premium attribute, re-reserving over the communicator's current
// endpoints — the repair of last resort, and the whole repair when a
// peer restarted and the old reservation points at a dead flow.
func (w *Watchdog) rebuild() bool {
	be := QosAttribute{Class: BestEffort}
	_ = w.agent.Apply(w.rank, w.comm, &be)
	attr := w.attr
	return w.agent.Apply(w.rank, w.comm, &attr) == nil
}

// Repairs returns how many times the watchdog restored the premium
// binding without a fallback.
func (w *Watchdog) Repairs() int { return w.repairs }

// Fallbacks returns how many times the flow was demoted to best
// effort.
func (w *Watchdog) Fallbacks() int { return w.fallbacks }

// Upgrades returns how many times the flow was promoted back from a
// fallback.
func (w *Watchdog) Upgrades() int { return w.upgrades }

// Rebinds returns how many times the premium binding was re-reserved
// because a communicator member restarted.
func (w *Watchdog) Rebinds() int { return w.rebinds }
