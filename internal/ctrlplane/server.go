package ctrlplane

import (
	"errors"
	"fmt"

	"mpichgq/internal/gara"
	"mpichgq/internal/metrics"
	"mpichgq/internal/sim"
	"mpichgq/internal/spans"
)

// Server is a domain RM's control-plane front end: it executes
// reservation requests against the domain's Gara and answers
// idempotently via a request-ID reply cache. Crash models the broker
// process dying — session state (reply cache, reservation handles) is
// lost along with the RM's tables; Restart replays the RM's journal.
// A crashed server drops requests silently, which is exactly what a
// client-side timeout looks like.
type Server struct {
	k    *sim.Kernel
	name string
	g    *gara.Gara
	rm   *gara.NetworkRM

	crashed bool
	// adm, when non-nil, is the overload-control layer: requests go
	// through a bounded fair admission queue and a finite-capacity
	// service loop instead of executing inline on channel delivery.
	adm *admitQueue
	// seen is the reply cache: a retried request gets its original
	// answer instead of a second execution. Session state — lost on
	// crash; correctness then rests on lease expiry, not on dedup.
	seen map[uint64]response
	// prepared/committed map reservation ids to live handles (session
	// state, lost on crash).
	prepared  map[uint64]*gara.Prepared
	committed map[uint64]*gara.Reservation

	mHandled, mDuped *metrics.Counter
	rec              *metrics.Recorder
	tr               *spans.Tracer
}

// NewServer wraps a domain's Gara + NetworkRM behind a control-plane
// endpoint named name (also stamped on the RM for its journal/recovery
// metrics).
func NewServer(k *sim.Kernel, name string, g *gara.Gara, rm *gara.NetworkRM) *Server {
	rm.Name = name
	reg := k.Metrics()
	return &Server{
		k: k, name: name, g: g, rm: rm,
		seen:      make(map[uint64]response),
		prepared:  make(map[uint64]*gara.Prepared),
		committed: make(map[uint64]*gara.Reservation),
		mHandled: reg.Counter("ctrl_server_requests_total",
			"control requests executed", "rm", name),
		mDuped: reg.Counter("ctrl_server_dup_requests_total",
			"duplicate control requests answered from the reply cache", "rm", name),
		rec: reg.Events(),
		tr:  k.Tracer(),
	}
}

// Name returns the server's domain name.
func (s *Server) Name() string { return s.name }

// EnableAdmission puts the overload-control layer in front of the
// server: a bounded admission queue with per-tenant fair dequeue,
// deadline-expired drop, CoDel shedding, and brownout. Must be called
// before traffic flows; cfg.ServiceTime must be > 0.
func (s *Server) EnableAdmission(cfg Admission) {
	if cfg.ServiceTime <= 0 {
		panic("ctrlplane: EnableAdmission needs ServiceTime > 0")
	}
	s.adm = newAdmitQueue(s.k, s.name, s, cfg)
}

// QueueDepth returns the admission queue depth (0 when admission is
// disabled).
func (s *Server) QueueDepth() int {
	if s.adm == nil {
		return 0
	}
	return s.adm.Depth()
}

// BrownoutLevel returns the current brownout level (0 when admission
// is disabled).
func (s *Server) BrownoutLevel() int {
	if s.adm == nil {
		return 0
	}
	return s.adm.Level()
}

// dispatch routes one delivered request: through the admission queue
// when overload control is enabled, else the legacy synchronous
// execution. The response, if one is produced, goes back to the
// request's stub (a crashed server produces none — the client sees a
// timeout).
func (s *Server) dispatch(m *msg) {
	if s.adm != nil {
		if s.crashed {
			return
		}
		s.adm.enqueue(m)
		return
	}
	resp, alive := s.handle(&m.req)
	if alive {
		m.answer(resp)
	}
}

// handle executes (or replays) one request. ok=false means the server
// is down and produced no reply at all.
func (s *Server) handle(req *request) (response, bool) {
	if s.crashed {
		return response{}, false
	}
	if resp, dup := s.seen[req.reqID]; dup {
		s.mDuped.Inc()
		s.tr.Begin(req.trace, req.parent, "server.dup", s.name).
			Int("req", int64(req.reqID)).End()
		return resp, true
	}
	sp := s.tr.Begin(req.trace, req.parent, spanName(serverSpanNames, req.method), s.name)
	// Bracket the dispatch so reservation spans created inside the Gara
	// (gara.prepare, gara.lease, ...) parent under this server span.
	prev := s.g.SetSpanContext(sp.Ctx())
	resp := s.apply(req)
	s.g.SetSpanContext(prev)
	sp.Int("res", int64(resp.resID))
	if resp.ok {
		sp.End()
	} else {
		sp.EndStatus(spans.StatusFailed)
	}
	s.seen[req.reqID] = resp
	s.mHandled.Inc()
	return resp, true
}

func (s *Server) apply(req *request) response {
	resp := response{reqID: req.reqID}
	fail := func(err error) response {
		resp.errText = err.Error()
		resp.notInDomain = errors.Is(err, gara.ErrNotInDomain)
		return resp
	}
	switch req.method {
	case methodPrepare:
		p, err := s.g.Prepare(req.spec, req.ttl)
		if err != nil {
			return fail(err)
		}
		s.prepared[p.ID()] = p
		resp.ok, resp.resID = true, p.ID()
	case methodCommit:
		p := s.prepared[req.resID]
		if p == nil {
			// Unknown prepare: either never arrived or the crash wiped
			// the session. The booking (if any) dies with its lease.
			return fail(fmt.Errorf("ctrlplane: %s: no prepared reservation %d", s.name, req.resID))
		}
		r, err := p.Commit()
		if err != nil {
			return fail(err)
		}
		delete(s.prepared, req.resID)
		s.committed[req.resID] = r
		resp.ok, resp.resID = true, req.resID
	case methodAbort:
		// Idempotent rollback: release whatever the id still holds. A
		// commit that was applied but whose ack was lost sits in
		// committed — the coordinator's abort must still undo it, or the
		// segment stays booked until its window ends. An id unknown to
		// both maps (session lost in a crash) is released straight from
		// the recovered tables; a never-booked id is a no-op.
		if p := s.prepared[req.resID]; p != nil {
			p.Abort()
			delete(s.prepared, req.resID)
		} else if r := s.committed[req.resID]; r != nil {
			r.Cancel()
			delete(s.committed, req.resID)
		} else {
			s.rm.ReleaseID(req.resID)
		}
		resp.ok = true
	case methodReserve:
		// The naive one-shot path (no lease, no two-phase): what the
		// figG experiment contrasts the protocol against.
		r, err := s.g.Reserve(req.spec)
		if err != nil {
			return fail(err)
		}
		s.committed[r.ID()] = r
		resp.ok, resp.resID = true, r.ID()
	case methodCancel:
		if r := s.committed[req.resID]; r != nil {
			r.Cancel()
			delete(s.committed, req.resID)
		} else {
			// Handle lost in a crash: release straight from the
			// recovered tables so cancel stays effective post-restart.
			s.rm.ReleaseID(req.resID)
		}
		resp.ok = true
	default:
		resp.errText = "ctrlplane: unknown method " + req.method
	}
	return resp
}

// Crash kills the server: session state is wiped, the RM's in-memory
// state is lost (see NetworkRM.Crash), and until Restart every request
// is dropped without a reply.
func (s *Server) Crash() {
	if s.crashed {
		return
	}
	s.crashed = true
	s.seen = make(map[uint64]response)
	s.prepared = make(map[uint64]*gara.Prepared)
	s.committed = make(map[uint64]*gara.Reservation)
	if s.adm != nil {
		s.adm.wipe()
	}
	s.rm.Crash()
}

// Restart brings the server back: the RM replays its journal (if it
// has one) and requests flow again. The reply cache starts empty — a
// request retried across the restart re-executes, which is safe for
// the idempotent methods and lease-bounded for prepare.
func (s *Server) Restart() (gara.RecoverStats, error) {
	if !s.crashed {
		return gara.RecoverStats{}, nil
	}
	s.crashed = false
	if s.rm.Journal == nil {
		return gara.RecoverStats{}, nil
	}
	return s.rm.Recover()
}
