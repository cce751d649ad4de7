package gara

import (
	"errors"
	"fmt"
	"time"

	"mpichgq/internal/diffserv"
	"mpichgq/internal/dsrt"
	"mpichgq/internal/metrics"
	"mpichgq/internal/sim"
	"mpichgq/internal/spans"
	"mpichgq/internal/units"
)

// ResourceType names a class of reservable resource.
type ResourceType string

// The resource types the paper's GARA deployment managed.
const (
	// ResourceNetwork is premium (EF) network bandwidth via the DS
	// resource manager.
	ResourceNetwork ResourceType = "network"
	// ResourceCPU is a soft-real-time CPU share via the DSRT
	// resource manager.
	ResourceCPU ResourceType = "cpu"
	// ResourceStorage is read bandwidth on a DPSS-style network
	// storage server.
	ResourceStorage ResourceType = "storage"
)

// State is a reservation's lifecycle state.
type State int

// Reservation lifecycle states.
const (
	// StatePending: admitted advance reservation, start time not yet
	// reached.
	StatePending State = iota
	// StateActive: enforcement is in effect.
	StateActive
	// StateExpired: the reservation's scheduled end passed.
	StateExpired
	// StateCancelled: the holder cancelled the reservation.
	StateCancelled
	// StateDegraded: the reserved path no longer exists (link failure
	// or reroute); enforcement has been torn down and booked capacity
	// released, but the handle stays repairable via Reattach.
	// Appended after the original states so their values — baked into
	// metrics and loops — are unchanged.
	StateDegraded
)

func (s State) String() string {
	switch s {
	case StatePending:
		return "pending"
	case StateActive:
		return "active"
	case StateExpired:
		return "expired"
	case StateCancelled:
		return "cancelled"
	case StateDegraded:
		return "degraded"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// Errors returned by reservation operations.
var (
	ErrNoManager     = errors.New("gara: no resource manager for type")
	ErrNotModifiable = errors.New("gara: reservation not in a modifiable state")
	ErrNotDegraded   = errors.New("gara: reservation is not degraded")
	ErrNoReattach    = errors.New("gara: resource manager cannot reattach")
)

// Class ranks a reservation request for admission under overload.
// The slot table itself is class-blind — capacity is capacity — but
// the control plane's brownout mode sheds lower classes first so
// premium admission degrades last (see internal/ctrlplane).
type Class uint8

const (
	// ClassBestEffort is background work: first to shed.
	ClassBestEffort Class = iota
	// ClassNormal is interactive work without a guarantee.
	ClassNormal
	// ClassPremium carries a QoS guarantee: shed only when the broker
	// is saturated outright.
	ClassPremium
)

// String names the class for metrics labels and operator output.
func (c Class) String() string {
	switch c {
	case ClassPremium:
		return "premium"
	case ClassNormal:
		return "normal"
	default:
		return "besteffort"
	}
}

// Spec describes a requested reservation. Type selects the resource
// manager; the manager reads its own fields and ignores the rest.
type Spec struct {
	Type ResourceType
	// Class ranks the request for overload shedding (default
	// ClassBestEffort — unranked traffic yields first).
	Class Class
	// Start is the absolute virtual start time. A Start at or before
	// "now" is an immediate reservation; later is an advance
	// reservation.
	Start time.Duration
	// Duration of enforcement; 0 or Forever means until cancelled.
	Duration time.Duration

	// Network fields.
	Flow      diffserv.Match // must pin Src and Dst for path lookup
	Bandwidth units.BitRate
	// BucketDepth overrides the manager's depth policy when non-zero.
	BucketDepth units.ByteSize

	// CPU fields.
	Task     *dsrt.Task
	Fraction float64

	// Storage fields.
	Store    *DPSS
	ReadRate units.BitRate
}

// window returns the absolute [start, end) of the spec given now.
func (s Spec) window(now time.Duration) (time.Duration, time.Duration) {
	start := s.Start
	if start < now {
		start = now
	}
	if s.Duration <= 0 || s.Duration == Forever {
		return start, Forever
	}
	return start, start + s.Duration
}

// ResourceManager is the uniform interface GARA drives. Admit performs
// admission control and books slot-table capacity; Activate and
// Deactivate enforce; Modify rebooks and re-enforces. The Reservation
// owns its window and end timer: managers read r.spec and r.start,
// r.end, and never write them.
type ResourceManager interface {
	Type() ResourceType
	// Admit books capacity for r.Spec and returns an error if the
	// request cannot be satisfied.
	Admit(r *Reservation) error
	// Release frees the booked capacity. Neither Admit nor Release
	// may keep r: Probe passes the same trial reservation every time.
	Release(r *Reservation)
	// Activate begins enforcement (install router rules, set CPU
	// shares, ...).
	Activate(r *Reservation) error
	// Deactivate ends enforcement.
	Deactivate(r *Reservation)
	// Modify rebooks r for spec over [start, end) and, if r is active,
	// retunes its enforcement. On error the booking and enforcement
	// are as they were; r itself is left to Reservation.Modify.
	Modify(r *Reservation, spec Spec, start, end time.Duration) error
}

// Gara is the reservation front end: one instance per administrative
// domain, dispatching to registered resource managers.
type Gara struct {
	k        *sim.Kernel
	managers map[ResourceType]ResourceManager
	nextID   uint64
	// probe is the trial reservation Probe books and releases.
	probe Reservation

	mTransitions  [5]*metrics.Counter // indexed by State
	mRejects      *metrics.Counter
	mReserved     *metrics.Counter
	mPrepares     *metrics.Counter
	mCommits      *metrics.Counter
	mAborts       *metrics.Counter
	mLeaseExpired *metrics.Counter
	rec           *metrics.Recorder
	tr            *spans.Tracer
	// spanCtx is the propagation context reservation spans parent
	// under; the ctrlplane server installs it around each dispatched
	// request so a lease span links to the RPC that created it.
	spanCtx spans.Context
}

// New returns a Gara with no managers registered.
func New(k *sim.Kernel) *Gara {
	g := &Gara{k: k, managers: make(map[ResourceType]ResourceManager)}
	reg := k.Metrics()
	for s := StatePending; s <= StateDegraded; s++ {
		g.mTransitions[s] = reg.Counter("gara_state_transitions_total",
			"reservation lifecycle transitions", "state", s.String())
	}
	g.mRejects = reg.Counter("gara_admission_rejects_total",
		"reservation requests refused by admission control")
	g.mReserved = reg.Counter("gara_reservations_total",
		"reservations admitted")
	g.mPrepares = reg.Counter("gara_prepares_total",
		"two-phase reservations prepared (capacity held under lease)")
	g.mCommits = reg.Counter("gara_prepare_commits_total",
		"prepared reservations committed")
	g.mAborts = reg.Counter("gara_prepare_aborts_total",
		"prepared reservations aborted before commit")
	g.mLeaseExpired = reg.Counter("gara_leases_expired_total",
		"prepared reservations reclaimed by lease expiry")
	g.rec = reg.Events()
	g.tr = k.Tracer()
	return g
}

// SetSpanContext installs the trace context that subsequent
// reservation spans parent under, returning the previous context so
// callers can restore it. The ctrlplane server brackets each
// dispatched request with this, which is safe because the kernel
// admits one runnable goroutine at a time.
func (g *Gara) SetSpanContext(c spans.Context) spans.Context {
	prev := g.spanCtx
	g.spanCtx = c
	return prev
}

// spanFor returns the (trace, parent) a new span about reservation id
// should use: the installed propagation context if one is set, else a
// fresh trace derived from the reservation ID.
func (g *Gara) spanFor(id uint64) (spans.TraceID, spans.SpanID) {
	if g.spanCtx.Valid() {
		return g.spanCtx.Trace, g.spanCtx.Parent
	}
	return spans.DeriveTrace(spans.NSReservation, id), 0
}

// Register installs a resource manager. Only certain elements of the
// generic machinery need replacing to support a new resource type.
func (g *Gara) Register(rm ResourceManager) {
	if _, dup := g.managers[rm.Type()]; dup {
		panic(fmt.Sprintf("gara: duplicate manager for %q", rm.Type()))
	}
	g.managers[rm.Type()] = rm
}

// Kernel returns the simulation kernel.
func (g *Gara) Kernel() *sim.Kernel { return g.k }

// Reservation is the opaque handle returned by Reserve: it allows the
// holder to modify, cancel, and monitor the reservation.
type Reservation struct {
	g     *Gara
	id    uint64
	spec  Spec
	state State
	rm    ResourceManager

	start, end time.Duration
	startTimer sim.Timer
	endTimer   sim.Timer
	callbacks  []func(*Reservation, State)
}

// ID returns the reservation's unique id (also its slot-table key).
func (r *Reservation) ID() uint64 { return r.id }

// Spec returns the current specification.
func (r *Reservation) Spec() Spec { return r.spec }

// State returns the current lifecycle state.
func (r *Reservation) State() State { return r.state }

// Window returns the absolute enforcement window.
func (r *Reservation) Window() (start, end time.Duration) { return r.start, r.end }

// OnChange registers a callback invoked on every state transition —
// GARA's "callback mechanism in which a user's function is called
// every time the state of the reservation changes in an interesting
// way".
func (r *Reservation) OnChange(fn func(*Reservation, State)) {
	r.callbacks = append(r.callbacks, fn)
}

func (r *Reservation) transition(s State) {
	r.state = s
	if s >= StatePending && s <= StateDegraded {
		r.g.mTransitions[s].Inc()
	}
	r.g.rec.Emit(metrics.EvReservationState, s.String(), int64(r.id), 0, 0)
	for _, fn := range r.callbacks {
		fn(r, s)
	}
}

// manager returns the manager registered for t.
func (g *Gara) manager(t ResourceType) (ResourceManager, error) {
	if rm := g.managers[t]; rm != nil {
		return rm, nil
	}
	return nil, fmt.Errorf("%w %q", ErrNoManager, t)
}

// admit is the front half of Reserve and Prepare: it numbers a new
// reservation for spec, opens the op span over it and books it with
// spec's manager. A refusal is counted and ends the span failed.
func (g *Gara) admit(spec Spec, op string) (*Reservation, *spans.Span, error) {
	rm, err := g.manager(spec.Type)
	if err != nil {
		return nil, nil, err
	}
	g.nextID++
	r := &Reservation{g: g, id: g.nextID, spec: spec, rm: rm}
	r.start, r.end = spec.window(g.k.Now())
	trace, parent := g.spanFor(r.id)
	sp := g.tr.Begin(trace, parent, op, string(spec.Type))
	sp.Int("res", int64(r.id))
	if err := rm.Admit(r); err != nil {
		g.mRejects.Inc()
		g.rec.Emit(metrics.EvAdmissionReject, string(spec.Type), 0, 0, 0)
		sp.EndStatus(spans.StatusFailed)
		return nil, nil, err
	}
	return r, sp, nil
}

// Reserve requests an immediate or advance reservation. On success the
// returned handle is Pending (advance) or Active (immediate).
func (g *Gara) Reserve(spec Spec) (*Reservation, error) {
	r, sp, err := g.admit(spec, "gara.reserve")
	if err != nil {
		return nil, err
	}
	g.mReserved.Inc()
	if err := r.begin(); err != nil {
		sp.EndStatus(spans.StatusFailed)
		return nil, err
	}
	sp.End()
	return r, nil
}

// begin starts an admitted reservation's lifecycle: immediate
// activation (or, for an advance reservation, a Pending state with a
// start timer). Shared by Reserve and Prepared.Commit. On an
// immediate-activation failure the booked capacity is released and
// the error returned.
func (r *Reservation) begin() error {
	g := r.g
	if r.start <= g.k.Now() {
		// A fresh handle has no callbacks yet, so transition only
		// records the state and its metrics.
		return r.activate()
	}
	r.transition(StatePending)
	r.startTimer = g.k.At(r.start, sim.PrioNormal, func() {
		if r.state == StatePending && r.activate() != nil {
			// Enforcement failed at start time: report it.
			r.transition(StateCancelled)
		}
	})
	return nil
}

// activate starts enforcement and arms the end timer; when enforcement
// fails it releases the booked capacity and returns the error.
func (r *Reservation) activate() error {
	if err := r.rm.Activate(r); err != nil {
		r.rm.Release(r)
		return err
	}
	r.transition(StateActive)
	r.armEnd()
	return nil
}

func (r *Reservation) armEnd() {
	if r.end == Forever {
		return
	}
	r.endTimer = r.g.k.At(r.end, sim.PrioNormal, func() {
		switch r.state {
		case StateActive:
			r.stop(StateExpired)
		case StateDegraded:
			// Enforcement and capacity were already torn down when the
			// reservation degraded; the window just runs out.
			r.transition(StateExpired)
		}
	})
}

// Degrade marks an Active reservation as degraded: enforcement is
// removed and booked capacity released, but the handle — unlike a
// cancelled one — can be repaired with Reattach. Resource managers
// call this when the reserved path no longer exists; an unbooked flow
// must not keep riding EF ("the number of expedited packets must be
// carefully limited"). Idempotent; a no-op unless Active.
func (r *Reservation) Degrade() {
	if r.state == StateActive {
		r.stop(StateDegraded)
	}
}

// stop ends r's enforcement if it is active, releases its capacity and
// moves it to state s. A degraded reservation holds no capacity, but
// Release is idempotent.
func (r *Reservation) stop(s State) {
	if r.state == StateActive {
		r.rm.Deactivate(r)
	}
	r.rm.Release(r)
	r.transition(s)
}

// Reattacher is implemented by resource managers that can repair a
// degraded reservation in place: re-admit it against the current
// topology and reinstall enforcement.
type Reattacher interface {
	Reattach(r *Reservation) error
}

// Reattach repairs a degraded reservation: the manager re-admits it on
// the current path for the remainder of the window and resumes
// enforcement, and the reservation returns to Active. Returns
// ErrNotDegraded if the reservation is not degraded, ErrNoReattach if
// the manager cannot repair, or the manager's admission error (e.g.
// the surviving path lacks capacity) — in which case the reservation
// stays Degraded and the caller may retry later.
func (r *Reservation) Reattach() error {
	if r.state != StateDegraded {
		return ErrNotDegraded
	}
	ra, ok := r.rm.(Reattacher)
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoReattach, r.rm.Type())
	}
	if err := ra.Reattach(r); err != nil {
		return err
	}
	r.transition(StateActive)
	return nil
}

// Modify changes the reservation in place (e.g. a new bandwidth). The
// resource type may not change. Allowed while Pending or Active. The
// new window comes from spec, except that an active reservation keeps
// its start: enforcement already began. On error the reservation, its
// booking and its enforcement are unchanged.
func (r *Reservation) Modify(spec Spec) error {
	if r.state != StatePending && r.state != StateActive {
		return ErrNotModifiable
	}
	if spec.Type != r.spec.Type {
		return fmt.Errorf("gara: cannot change resource type %q -> %q", r.spec.Type, spec.Type)
	}
	start, end := spec.window(r.g.k.Now())
	if r.state == StateActive {
		start = r.start
	}
	if err := r.rm.Modify(r, spec, start, end); err != nil {
		return err
	}
	r.spec = spec
	r.start, r.end = start, end
	if r.state == StateActive {
		r.endTimer.Cancel()
		r.armEnd()
	}
	return nil
}

// Cancel releases the reservation. Idempotent.
func (r *Reservation) Cancel() {
	if r.state != StatePending && r.state != StateActive && r.state != StateDegraded {
		return
	}
	r.startTimer.Cancel()
	r.endTimer.Cancel()
	r.stop(StateCancelled)
}

// Probe checks whether spec could be admitted right now, without
// holding any capacity: it books and immediately releases. Resource
// selection at program startup uses this to compare candidate
// placements before committing.
func (g *Gara) Probe(spec Spec) error {
	rm, err := g.manager(spec.Type)
	if err != nil {
		return err
	}
	g.nextID++
	r := &g.probe
	*r = Reservation{g: g, id: g.nextID, spec: spec, rm: rm}
	r.start, r.end = spec.window(g.k.Now())
	err = rm.Admit(r)
	if err == nil {
		rm.Release(r)
	}
	*r = Reservation{}
	return err
}

// CoReserve atomically requests several reservations: either all are
// admitted or none are ("co-reservation of CPU, network, and other
// resources needed for end-to-end performance").
func (g *Gara) CoReserve(specs ...Spec) ([]*Reservation, error) {
	var got []*Reservation
	for _, spec := range specs {
		r, err := g.Reserve(spec)
		if err != nil {
			for _, prev := range got {
				prev.Cancel()
			}
			return nil, fmt.Errorf("gara: co-reservation failed on %q: %w", spec.Type, err)
		}
		got = append(got, r)
	}
	return got, nil
}
