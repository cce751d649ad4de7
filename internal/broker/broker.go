// Package broker implements the bandwidth broker the paper places in
// front of the routers: "admission control is performed not by the
// router but by an external QoS system, usually referred to as a
// bandwidth broker" (§2), with GARA's "policy-driven management of a
// variety of resource types" (§4.2).
//
// The broker sits above GARA: principals (users, projects) submit
// reservation requests; the broker enforces one policy per principal
// (bandwidth quota, duration and advance-booking limits), keeps an
// auditable decision log, and only then forwards admitted requests to
// GARA's slot-table admission.
package broker

import (
	"fmt"
	"time"

	"mpichgq/internal/gara"
	"mpichgq/internal/metrics"
	"mpichgq/internal/units"
)

// Principal identifies a requesting user or project.
type Principal string

// Policy bounds each principal's reservations.
type Policy struct {
	// MaxBandwidth caps the sum of the principal's active and
	// pending network reservations. Zero means no network quota.
	MaxBandwidth units.BitRate
	// MaxDuration caps a single reservation's length; zero allows
	// indefinite reservations.
	MaxDuration time.Duration
	// MaxAdvance caps how far ahead an advance reservation may
	// start; zero allows any horizon.
	MaxAdvance time.Duration
	// MaxCPUFraction caps the sum of the principal's CPU
	// reservations across hosts. Zero means no CPU quota.
	MaxCPUFraction float64
}

// Decision is one audit-log entry.
type Decision struct {
	T       time.Duration
	Who     Principal
	Spec    gara.Spec
	Granted bool
	Reason  string
}

// Broker is a policy-enforcing front end to a Gara instance.
type Broker struct {
	g      *gara.Gara
	policy Policy
	active map[Principal][]*gara.Reservation
	// seen remembers the state each tracked reservation was last
	// reconciled in, so a quota release is logged exactly once per
	// transition.
	seen map[*gara.Reservation]gara.State
	log  []Decision

	mReleased *metrics.Counter
}

// New returns a broker over g that holds every principal to policy.
func New(g *gara.Gara, policy Policy) *Broker {
	return &Broker{
		g:      g,
		policy: policy,
		active: make(map[Principal][]*gara.Reservation),
		seen:   make(map[*gara.Reservation]gara.State),
		mReleased: g.Kernel().Metrics().Counter("broker_quota_released_total",
			"reservations whose principal quota was released by reconciliation"),
	}
}

// Usage returns the principal's currently committed network bandwidth
// and CPU fraction (pending advance reservations count: they hold
// slot-table capacity). Degraded reservations are excluded — a
// degraded handle holds no booked capacity, so its quota is released
// until a Reattach brings it back — but they stay tracked, so a
// successful repair re-charges the principal.
func (b *Broker) Usage(p Principal) (units.BitRate, float64) {
	var bw units.BitRate
	var cpu float64
	for _, r := range b.live(p) {
		if r.State() == gara.StateDegraded {
			continue
		}
		switch r.Spec().Type {
		case gara.ResourceNetwork:
			bw += r.Spec().Bandwidth
		case gara.ResourceCPU:
			cpu += r.Spec().Fraction
		}
	}
	return bw, cpu
}

// live reconciles the principal's ledger against the reservations'
// actual states: terminal handles (expired, or cancelled — whether by
// the holder or by crash recovery) are pruned and degraded ones
// retained but flagged, each transition audited once and counted in
// broker_quota_released_total.
func (b *Broker) live(p Principal) []*gara.Reservation {
	kept := b.active[p][:0]
	for _, r := range b.active[p] {
		s := r.State()
		switch s {
		case gara.StateActive, gara.StatePending:
			kept = append(kept, r)
		case gara.StateDegraded:
			// Repairable: keep tracking, but the quota is free.
			kept = append(kept, r)
			b.noteRelease(p, r, s)
		default:
			b.noteRelease(p, r, s)
			delete(b.seen, r)
		}
		if _, tracked := b.seen[r]; tracked {
			b.seen[r] = s
		}
	}
	b.active[p] = kept
	return kept
}

// noteRelease logs a quota release the first time a reservation is
// seen in a non-chargeable state. A degraded handle that is repaired
// and degrades again is logged again: each transition releases quota.
func (b *Broker) noteRelease(p Principal, r *gara.Reservation, s gara.State) {
	if b.seen[r] == s {
		return
	}
	b.mReleased.Inc()
	b.log = append(b.log, Decision{
		T: b.g.Kernel().Now(), Who: p, Spec: r.Spec(),
		Reason: fmt.Sprintf("reconciled: reservation %s, quota released", s),
	})
}

// Request submits a reservation on behalf of a principal. Policy
// violations are rejected before GARA sees the request; admission
// failures from GARA are logged the same way.
func (b *Broker) Request(who Principal, spec gara.Spec) (*gara.Reservation, error) {
	pol := b.policy
	now := b.g.Kernel().Now()
	deny := func(reason string) (*gara.Reservation, error) {
		b.log = append(b.log, Decision{T: now, Who: who, Spec: spec, Reason: reason})
		return nil, fmt.Errorf("broker: %s", reason)
	}
	if pol.MaxDuration > 0 && (spec.Duration <= 0 || spec.Duration > pol.MaxDuration) {
		return deny(fmt.Sprintf("duration %v exceeds policy limit %v", spec.Duration, pol.MaxDuration))
	}
	if pol.MaxAdvance > 0 && spec.Start > now+pol.MaxAdvance {
		return deny(fmt.Sprintf("start %v beyond advance horizon %v", spec.Start, pol.MaxAdvance))
	}
	bw, cpu := b.Usage(who)
	switch spec.Type {
	case gara.ResourceNetwork:
		if pol.MaxBandwidth > 0 && bw+spec.Bandwidth > pol.MaxBandwidth {
			return deny(fmt.Sprintf("bandwidth quota: %v in use + %v requested > %v",
				bw, spec.Bandwidth, pol.MaxBandwidth))
		}
	case gara.ResourceCPU:
		if pol.MaxCPUFraction > 0 && cpu+spec.Fraction > pol.MaxCPUFraction {
			return deny(fmt.Sprintf("CPU quota: %.2f in use + %.2f requested > %.2f",
				cpu, spec.Fraction, pol.MaxCPUFraction))
		}
	}
	r, err := b.g.Reserve(spec)
	if err != nil {
		b.log = append(b.log, Decision{T: now, Who: who, Spec: spec, Reason: err.Error()})
		return nil, err
	}
	b.active[who] = append(b.active[who], r)
	b.seen[r] = r.State()
	b.log = append(b.log, Decision{T: now, Who: who, Spec: spec, Granted: true, Reason: "admitted"})
	return r, nil
}

// Decisions returns the audit log.
func (b *Broker) Decisions() []Decision {
	out := make([]Decision, len(b.log))
	copy(out, b.log)
	return out
}
