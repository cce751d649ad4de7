package ctrlplane

import (
	"errors"
	"fmt"
	"time"

	"mpichgq/internal/gara"
	"mpichgq/internal/sim"
	"mpichgq/internal/spans"
)

// Coordinator drives GARA's two-phase co-reservation over the control
// plane: prepare every domain's segment under a lease, then commit
// them all. Any step can time out, hit an open breaker, or be refused;
// the coordinator rolls back best-effort and relies on lease expiry
// for whatever its rollback messages fail to reach.
type Coordinator struct {
	conns []*Conn
	// LeaseTTL is the prepare-lease length requested from each domain
	// (zero lets the domain default apply). It must comfortably exceed
	// the worst-case commit round: Deadline per prepare/commit times
	// the number of domains.
	LeaseTTL time.Duration

	tr *spans.Tracer
	// nextAttempt numbers Reserve/ReserveNaive calls; each gets its own
	// trace derived from this counter, which is deterministic because
	// the coordinator runs inside the single-threaded kernel.
	nextAttempt uint64
}

// NewCoordinator returns a coordinator over the given domain stubs.
func NewCoordinator(conns ...*Conn) *Coordinator {
	if len(conns) == 0 {
		panic("ctrlplane: coordinator needs at least one domain")
	}
	return &Coordinator{conns: conns, tr: conns[0].k.Tracer()}
}

// rollbackRetries is how many extra whole calls a rollback
// cancel/abort gets after its first fails. A lost rollback on a
// *committed* segment orphans capacity until the window ends — the one
// leak the lease cannot bound — so rollback is worth retrying harder
// than the happy path.
const rollbackRetries = 2

// segment is one domain's share of a co-reservation.
type segment struct {
	conn  *Conn
	resID uint64
}

// MultiRes is a committed cross-domain reservation.
type MultiRes struct {
	segs  []segment
	trace spans.TraceID
}

// IDs returns the per-domain reservation ids, in domain order.
func (m *MultiRes) IDs() map[string]uint64 {
	out := make(map[string]uint64, len(m.segs))
	for _, sg := range m.segs {
		out[sg.conn.Name()] = sg.resID
	}
	return out
}

// Reserve books spec across every domain that owns part of the path,
// all or nothing, from inside a sim process. On failure it aborts or
// cancels what it can reach; unreachable segments are reclaimed by
// their lease (prepared) or stay booked until their window ends
// (committed, a risk the protocol bounds by committing last).
func (co *Coordinator) Reserve(ctx *sim.Ctx, spec gara.Spec) (*MultiRes, error) {
	trace := co.newTrace()
	root := co.tr.Begin(trace, 0, "co.reserve", "coordinator")
	root.Str("mode", "two-phase")
	var prepped []segment
	for _, cn := range co.conns {
		resp, err := cn.call(ctx, methodPrepare,
			request{spec: spec, ttl: co.LeaseTTL, trace: trace, parent: root.SpanID()})
		if err != nil {
			co.rollback(ctx, trace, root, nil, prepped)
			return nil, fmt.Errorf("ctrlplane: prepare on %s: %w", cn.Name(), err)
		}
		if !resp.ok {
			if resp.notInDomain {
				continue
			}
			co.rollback(ctx, trace, root, nil, prepped)
			return nil, errors.New(refusal(cn.Name(), resp.errText))
		}
		prepped = append(prepped, segment{conn: cn, resID: resp.resID})
	}
	if len(prepped) == 0 {
		root.EndStatus(spans.StatusFailed)
		return nil, errors.New("ctrlplane: no domain owns any hop of the flow's path")
	}
	for i, sg := range prepped {
		resp, err := sg.conn.call(ctx, methodCommit,
			request{resID: sg.resID, trace: trace, parent: root.SpanID()})
		if err == nil {
			err = rpcError(resp)
		}
		if err != nil {
			// Roll back: cancel what committed, abort what did not.
			co.rollback(ctx, trace, root, prepped[:i], prepped[i:])
			return nil, fmt.Errorf("ctrlplane: commit on %s: %w", sg.conn.Name(), err)
		}
	}
	root.Int("segments", int64(len(prepped)))
	root.End()
	return &MultiRes{segs: prepped, trace: trace}, nil
}

// newTrace derives the next co-reservation attempt's trace ID.
func (co *Coordinator) newTrace() spans.TraceID {
	co.nextAttempt++
	return spans.DeriveTrace(spans.NSCoReserve, co.nextAttempt)
}

// rollback undoes a partial co-reservation under a co.rollback span —
// cancelling committed segments, aborting merely prepared ones — and
// closes the root span as failed.
func (co *Coordinator) rollback(ctx *sim.Ctx, trace spans.TraceID, root *spans.Span, committed, prepped []segment) {
	rb := co.tr.Begin(trace, root.SpanID(), "co.rollback", "coordinator")
	rb.Int("cancel", int64(len(committed))).Int("abort", int64(len(prepped)))
	for _, done := range committed {
		co.release(ctx, done, methodCancel, trace, rb.SpanID())
	}
	for _, sg := range prepped {
		co.release(ctx, sg, methodAbort, trace, rb.SpanID())
	}
	rb.End()
	root.EndStatus(spans.StatusFailed)
}

// ReserveNaive is the unprotected baseline: a single one-shot reserve
// RPC per domain with no lease and no second phase. A lost reply (the
// reservation was made but the client never learns its id) or a lost
// cancel orphans booked capacity — the leak figG measures.
func (co *Coordinator) ReserveNaive(ctx *sim.Ctx, spec gara.Spec) (*MultiRes, error) {
	trace := co.newTrace()
	root := co.tr.Begin(trace, 0, "co.reserve", "coordinator")
	root.Str("mode", "naive")
	var got []segment
	for _, cn := range co.conns {
		resp, err := cn.call(ctx, methodReserve,
			request{spec: spec, trace: trace, parent: root.SpanID()})
		if err != nil {
			// Rollback of what we know about (with the same retry
			// budget two-phase rollback gets); anything the reply loss
			// hid from us has no id to cancel and stays booked.
			co.rollback(ctx, trace, root, got, nil)
			return nil, fmt.Errorf("ctrlplane: reserve on %s: %w", cn.Name(), err)
		}
		if !resp.ok {
			if resp.notInDomain {
				continue
			}
			co.rollback(ctx, trace, root, got, nil)
			return nil, errors.New(refusal(cn.Name(), resp.errText))
		}
		got = append(got, segment{conn: cn, resID: resp.resID})
	}
	if len(got) == 0 {
		root.EndStatus(spans.StatusFailed)
		return nil, errors.New("ctrlplane: no domain owns any hop of the flow's path")
	}
	root.Int("segments", int64(len(got)))
	root.End()
	return &MultiRes{segs: got, trace: trace}, nil
}

// release drives one rollback cancel/abort with retries. Both methods
// are idempotent server-side (any reply means the capacity is gone),
// so the loop stops at the first answered call. Retries are spaced so
// they do not all land inside one bad spell: a breaker-rejected call
// waits out the cooldown (otherwise every retry fails fast against the
// same open breaker), a deadline failure waits one more deadline.
func (co *Coordinator) release(ctx *sim.Ctx, sg segment, method string, trace spans.TraceID, parent spans.SpanID) {
	for try := 0; ; try++ {
		_, err := sg.conn.call(ctx, method,
			request{resID: sg.resID, trace: trace, parent: parent})
		if err == nil || try >= rollbackRetries {
			return
		}
		pause := sg.conn.Deadline
		if errors.Is(err, ErrBreakerOpen) && sg.conn.Breaker != nil {
			pause = sg.conn.Breaker.Cooldown
		}
		ctx.Sleep(pause)
	}
}

// Cancel releases every segment of a committed co-reservation,
// best-effort; it returns the first error encountered (the capacity of
// a domain that cannot be reached stays booked until its window ends
// or recovery reconciles it).
func (m *MultiRes) Cancel(ctx *sim.Ctx) error {
	var first error
	sp := m.segs[0].conn.tr.Begin(m.trace, 0, "co.cancel", "coordinator")
	for _, sg := range m.segs {
		resp, err := sg.conn.call(ctx, methodCancel,
			request{resID: sg.resID, trace: m.trace, parent: sp.SpanID()})
		if err == nil {
			err = rpcError(resp)
		}
		if err != nil && first == nil {
			first = err
		}
	}
	if first != nil {
		sp.EndStatus(spans.StatusFailed)
	} else {
		sp.End()
	}
	return first
}
