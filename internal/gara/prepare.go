package gara

import (
	"errors"
	"fmt"
	"time"

	"mpichgq/internal/metrics"
	"mpichgq/internal/sim"
	"mpichgq/internal/spans"
)

// Two-phase reservation support. GARA's co-reservations span "resources
// [in] multiple administrative domains" (§4.2) reached over wide-area
// control channels that can lose messages or crash mid-protocol. A
// plain Reserve immediately holds capacity forever; if the coordinator
// dies between booking segment 1 and segment 2, segment 1 leaks. The
// prepare/commit split bounds that exposure: a prepared reservation
// holds slot-table capacity only under a lease — if no commit arrives
// before the lease expires, the capacity is reclaimed automatically.

// DefaultLeaseTTL is the prepare-lease length used when a caller does
// not pick one: long enough for a wide-area commit round plus retries,
// short enough that an orphaned segment frees its capacity quickly.
const DefaultLeaseTTL = 5 * time.Second

// PrepareState is a Prepared reservation's lifecycle state.
type PrepareState int

// Prepared lifecycle states.
const (
	// PrepareHeld: capacity is booked under a live lease, awaiting
	// Commit or Abort.
	PrepareHeld PrepareState = iota
	// PrepareCommitted: the reservation went on to its normal
	// lifecycle (Pending or Active).
	PrepareCommitted
	// PrepareAborted: the capacity was released by Abort (or a failed
	// Commit activation).
	PrepareAborted
	// PrepareExpired: the lease ran out before Commit; the capacity
	// was reclaimed.
	PrepareExpired
)

func (s PrepareState) String() string {
	switch s {
	case PrepareHeld:
		return "held"
	case PrepareCommitted:
		return "committed"
	case PrepareAborted:
		return "aborted"
	case PrepareExpired:
		return "expired"
	default:
		return fmt.Sprintf("prepare-state(%d)", int(s))
	}
}

// Errors returned by the two-phase operations.
var (
	ErrLeaseExpired = errors.New("gara: prepared reservation's lease expired")
	ErrNotPrepared  = errors.New("gara: reservation is not in the prepared state")
)

// LeaseNoter is implemented by resource managers that track prepared
// leases — the NetworkRM journals them so a post-crash Recover can
// reconcile half-prepared bookings against lease expiry.
type LeaseNoter interface {
	// NoteLease records that id's booking is held under a lease ending
	// at leaseEnd.
	NoteLease(id uint64, leaseEnd time.Duration)
	// NoteCommit records that id's lease was converted into a durable
	// booking.
	NoteCommit(id uint64)
}

// Prepared is phase one of a two-phase reservation: capacity is booked
// in the slot table, but enforcement has not begun and the booking
// only survives until its lease expires. Commit promotes it to a full
// Reservation; Abort (or expiry) releases it.
type Prepared struct {
	g        *Gara
	r        *Reservation
	state    PrepareState
	leaseEnd time.Duration
	timer    sim.Timer
	// span covers the lease window: Begin at Prepare, End at Commit
	// (ok), Abort / failed activation (failed), or expiry (leaked).
	span *spans.Span
}

// Prepare books capacity for spec under a lease of the given TTL
// without starting enforcement (phase one of a two-phase
// co-reservation). A non-positive ttl uses DefaultLeaseTTL. The
// booking is reclaimed automatically if neither Commit nor Abort
// arrives before the lease ends.
func (g *Gara) Prepare(spec Spec, ttl time.Duration) (*Prepared, error) {
	if ttl <= 0 {
		ttl = DefaultLeaseTTL
	}
	r, sp, err := g.admit(spec, "gara.prepare")
	if err != nil {
		return nil, err
	}
	p := &Prepared{g: g, r: r, leaseEnd: g.k.Now() + ttl}
	p.span = g.tr.Begin(sp.TraceID(), sp.SpanID(), "gara.lease", string(spec.Type))
	p.span.Int("res", int64(r.id)).Int("ttl_ns", int64(ttl))
	if ln, ok := r.rm.(LeaseNoter); ok {
		ln.NoteLease(r.id, p.leaseEnd)
	}
	p.timer = g.k.At(p.leaseEnd, sim.PrioNormal, p.expire)
	g.mPrepares.Inc()
	sp.End()
	return p, nil
}

// ID returns the underlying reservation id (the slot-table key the
// booking is held under).
func (p *Prepared) ID() uint64 { return p.r.id }

// expire is the lease timer callback: reclaim the booking so an
// orphaned prepare (coordinator crash, lost abort) cannot leak booked
// capacity.
func (p *Prepared) expire() {
	if p.state != PrepareHeld {
		return
	}
	p.state = PrepareExpired
	p.r.rm.Release(p.r)
	p.g.mLeaseExpired.Inc()
	p.g.rec.Emit(metrics.EvCtrlLease, "expired", int64(p.r.id), 0, 0)
	p.span.EndStatus(spans.StatusLeaked)
}

// Commit is phase two: the booking becomes a normal reservation
// (Active immediately, or Pending until its start time). Returns
// ErrLeaseExpired if the lease already ran out, ErrNotPrepared after
// an Abort or a second Commit, or the manager's activation error — in
// which case the booked capacity has been released.
func (p *Prepared) Commit() (*Reservation, error) {
	switch p.state {
	case PrepareHeld:
	case PrepareExpired:
		return nil, ErrLeaseExpired
	default:
		return nil, ErrNotPrepared
	}
	p.timer.Cancel()
	if ln, ok := p.r.rm.(LeaseNoter); ok {
		ln.NoteCommit(p.r.id)
	}
	if err := p.r.begin(); err != nil {
		p.state = PrepareAborted
		p.span.EndStatus(spans.StatusFailed)
		return nil, err
	}
	p.state = PrepareCommitted
	p.g.mCommits.Inc()
	p.g.mReserved.Inc()
	p.span.End()
	return p.r, nil
}

// Abort releases the prepared capacity. Idempotent; a no-op once
// committed, aborted, or expired.
func (p *Prepared) Abort() {
	if p.state != PrepareHeld {
		return
	}
	p.state = PrepareAborted
	p.timer.Cancel()
	p.r.rm.Release(p.r)
	p.g.mAborts.Inc()
	p.span.EndStatus(spans.StatusFailed)
}
