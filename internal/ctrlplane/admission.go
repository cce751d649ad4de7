package ctrlplane

import (
	"time"

	"mpichgq/internal/gara"
	"mpichgq/internal/metrics"
	"mpichgq/internal/sim"
	"mpichgq/internal/spans"
)

// Admission tunes the server-side overload-control layer. The zero
// value (ServiceTime 0) disables the layer entirely: requests execute
// synchronously on channel delivery, exactly as before this layer
// existed — infinite capacity, no queueing, no shedding. That is the
// right model for protocol-correctness tests; a serving system sets
// ServiceTime > 0 and gets a bounded, fair, deadline- and
// delay-shedding admission queue in front of the broker.
type Admission struct {
	// ServiceTime is the broker's per-request execution time; it is
	// what makes capacity finite (throughput ceiling = 1/ServiceTime).
	// Zero disables the admission layer.
	ServiceTime time.Duration
	// QueueLimit bounds the admission queue; arrivals beyond it are
	// rejected with ErrOverloaded. 0 means unbounded (the classic
	// collapse configuration figI contrasts against).
	QueueLimit int
	// CoDelTarget is the acceptable standing queue delay: when the
	// dequeue-time sojourn stays above it for a full CoDelInterval,
	// the head request is shed. 0 disables delay-based shedding.
	CoDelTarget time.Duration
	// CoDelInterval is the grace window before (and between) delay
	// sheds (default 10×CoDelTarget).
	CoDelInterval time.Duration
	// DropExpired drops requests whose client deadline has already
	// passed at dequeue — serving them is dead work no client waits
	// for, and under overload dead work is what turns saturation into
	// collapse.
	DropExpired bool
	// BrownoutHi escalates the brownout level when queue depth reaches
	// it: level 1 sheds best-effort arrivals, level 2 admits premium
	// only. 0 disables brownout.
	BrownoutHi int
	// BrownoutLo de-escalates when depth falls back to it (default
	// BrownoutHi/4).
	BrownoutLo int
	// BrownoutHold is the minimum time between level changes (default
	// 500ms) so the level doesn't flap with the queue.
	BrownoutHold time.Duration
}

func (a Admission) withDefaults() Admission {
	if a.CoDelTarget > 0 && a.CoDelInterval <= 0 {
		a.CoDelInterval = 10 * a.CoDelTarget
	}
	if a.BrownoutHi > 0 && a.BrownoutLo <= 0 {
		a.BrownoutLo = a.BrownoutHi / 4
	}
	if a.BrownoutHi > 0 && a.BrownoutHold <= 0 {
		a.BrownoutHold = 500 * time.Millisecond
	}
	return a
}

// Shed reasons (EvAdmissionShed.V2 and the admission_shed_total
// "reason" label).
const (
	shedFull     = 0
	shedCoDel    = 1
	shedBrownout = 2
	shedExpired  = 3
	shedCrash    = 4
	shedEvict    = 5
)

var shedReasonNames = [...]string{
	shedFull:     "full",
	shedCoDel:    "codel",
	shedBrownout: "brownout",
	shedExpired:  "expired",
	shedCrash:    "crash",
	shedEvict:    "evict",
}

// shedErrText is each reason's refusal text, built once.
var shedErrText = func() (t [len(shedReasonNames)]string) {
	for r, name := range shedReasonNames {
		t[r] = "ctrlplane: admission shed (" + name + ")"
	}
	return t
}()

// queuedReq is one request parked in the admission queue; its record
// carries the reply path, so service can answer whenever it gets there.
// The slot holds a reference to the record, and passes it on to
// serving; whoever takes the request out for good drops it.
type queuedReq struct {
	m     *msg
	enqAt time.Duration
	sp    *spans.Span // admission.queue span, enqueue → serve/shed
}

// tenantQ is one tenant's FIFO. head indexes the next element so pops
// are O(1); the slice is reset when fully drained, and a full backing
// array with served slots at its head is compacted in place rather
// than grown.
type tenantQ struct {
	items []queuedReq
	head  int
}

func (t *tenantQ) len() int { return len(t.items) - t.head }

func (t *tenantQ) push(it queuedReq) {
	if t.head > 0 && len(t.items) == cap(t.items) {
		n := copy(t.items, t.items[t.head:])
		clear(t.items[n:])
		t.items = t.items[:n]
		t.head = 0
	}
	t.items = append(t.items, it)
}

func (t *tenantQ) pop() queuedReq {
	it := t.items[t.head]
	t.items[t.head] = queuedReq{} // release references
	t.head++
	if t.head == len(t.items) {
		t.items = t.items[:0]
		t.head = 0
	}
	return it
}

// admitQueue is the overload-control layer in front of one Server: a
// bounded admission queue with per-tenant round-robin dequeue,
// deadline-expired drop, CoDel-style sojourn shedding, and a brownout
// level that sheds lower reservation classes first. All state is
// mutated from kernel callbacks only, so runs are deterministic.
type admitQueue struct {
	k    *sim.Kernel
	name string
	srv  *Server
	cfg  Admission

	// tenants in first-appearance order (deterministic round-robin);
	// byTenant indexes into it.
	tenants  []*tenantQ
	byTenant map[string]*tenantQ
	rr       int // next tenant index to dequeue from
	depth    int
	busy     bool      // a request is in service
	serving  queuedReq // the request in service while busy

	// CoDel state: aboveAt is when the sojourn-over-target episode
	// began (0 = not in one).
	aboveAt time.Duration

	level      int // brownout level 0..2
	levelSince time.Duration

	mShed   [len(shedReasonNames)]*metrics.Counter
	mServed *metrics.Counter
	gDepth  *metrics.Gauge
	gLevel  *metrics.Gauge
	rec     *metrics.Recorder
	tr      *spans.Tracer
}

func newAdmitQueue(k *sim.Kernel, name string, srv *Server, cfg Admission) *admitQueue {
	reg := k.Metrics()
	q := &admitQueue{
		k: k, name: name, srv: srv, cfg: cfg.withDefaults(),
		byTenant: make(map[string]*tenantQ),
		mServed: reg.Counter("admission_served_total",
			"requests dequeued and executed by the broker", "rm", name),
		gDepth: reg.Gauge("admission_queue_depth",
			"requests waiting in the admission queue", "rm", name),
		gLevel: reg.Gauge("admission_brownout_level",
			"brownout level (0 none, 1 shed best-effort, 2 premium only)", "rm", name),
		rec: reg.Events(),
		tr:  k.Tracer(),
	}
	for r, reason := range shedReasonNames {
		q.mShed[r] = reg.Counter("admission_shed_total",
			"admission-queue rejections and drops", "rm", name, "reason", reason)
	}
	return q
}

// Level returns the current brownout level.
func (q *admitQueue) Level() int { return q.level }

// Depth returns the current queue depth.
func (q *admitQueue) Depth() int { return q.depth }

// admitsClass reports whether the current brownout level admits c.
func (q *admitQueue) admitsClass(c gara.Class) bool {
	switch q.level {
	case 0:
		return true
	case 1:
		return c >= gara.ClassNormal
	default:
		return c >= gara.ClassPremium
	}
}

// retryAfter estimates when the queue will have drained enough to
// admit a retry: the backlog's service time, floored at one service
// slot so hints never tell a client "retry immediately".
func (q *admitQueue) retryAfter() time.Duration {
	d := time.Duration(q.depth+1) * q.cfg.ServiceTime
	if d < q.cfg.ServiceTime {
		d = q.cfg.ServiceTime
	}
	return d
}

// enqueue is the admission decision point. A rejected request gets an
// overloaded reply (the client's cue to back off); an admitted one
// parks in its tenant's FIFO until the service loop reaches it.
func (q *admitQueue) enqueue(m *msg) {
	req := &m.req
	q.evalBrownout()
	if !q.admitsClass(req.spec.Class) {
		q.reject(m, shedBrownout)
		return
	}
	if q.cfg.QueueLimit > 0 && q.depth >= q.cfg.QueueLimit {
		// A higher-class arrival can displace the youngest lower-class
		// entry instead of being turned away — this is what "premium
		// degrades last" means at the queue, not just at the door.
		if !q.evictFor(req.spec.Class) {
			q.reject(m, shedFull)
			return
		}
	}
	t := q.byTenant[req.from]
	if t == nil {
		t = &tenantQ{}
		q.byTenant[req.from] = t
		q.tenants = append(q.tenants, t)
	}
	sp := q.tr.Begin(req.trace, req.parent, "admission.queue", q.name)
	sp.Int("req", int64(req.reqID))
	m.refs++
	t.push(queuedReq{m: m, enqAt: q.k.Now(), sp: sp})
	q.depth++
	q.gDepth.Set(float64(q.depth))
	q.kick()
}

// reject sheds a request, at the door or from the queue, with an
// overloaded reply carrying a retry-after hint.
func (q *admitQueue) reject(m *msg, reason int) {
	q.countShed(&m.req, reason)
	m.answer(response{
		reqID:        m.req.reqID,
		errText:      shedErrText[reason],
		overloaded:   true,
		retryAfterNS: int64(q.retryAfter()),
	})
}

func (q *admitQueue) countShed(req *request, reason int) {
	q.mShed[reason].Inc()
	q.rec.Emit(metrics.EvAdmissionShed, q.name,
		int64(req.reqID), int64(reason), int64(q.depth))
	q.tr.Begin(req.trace, req.parent, "admission.shed", q.name).
		Int("req", int64(req.reqID)).
		Str("reason", shedReasonNames[reason]).
		EndStatus(spans.StatusFailed)
}

// evictFor sheds the queued entry with the lowest class below c —
// youngest first among equals, so the least-sunk waiting cost is
// wasted — to make room for a class-c arrival. Returns false when
// nothing below c is queued.
func (q *admitQueue) evictFor(c gara.Class) bool {
	var vt *tenantQ
	vi := -1
	var vClass gara.Class
	var vAt time.Duration
	for _, t := range q.tenants {
		for i := t.head; i < len(t.items); i++ {
			it := &t.items[i]
			cl := it.m.req.spec.Class
			if cl >= c {
				continue
			}
			if vi == -1 || cl < vClass || (cl == vClass && it.enqAt > vAt) {
				vt, vi, vClass, vAt = t, i, cl, it.enqAt
			}
		}
	}
	if vi == -1 {
		return false
	}
	victim := vt.items[vi]
	vt.items = append(vt.items[:vi], vt.items[vi+1:]...)
	q.depth--
	q.gDepth.Set(float64(q.depth))
	victim.sp.EndStatus(spans.StatusFailed)
	q.reject(victim.m, shedEvict)
	victim.m.unref()
	return true
}

// nextTenant returns the next non-empty tenant queue round-robin, or
// nil when the whole queue is empty.
func (q *admitQueue) nextTenant() *tenantQ {
	for i := 0; i < len(q.tenants); i++ {
		t := q.tenants[q.rr%len(q.tenants)]
		q.rr = (q.rr + 1) % len(q.tenants)
		if t.len() > 0 {
			return t
		}
	}
	return nil
}

// kick advances the service loop: while the server is idle, pull the
// next request (fairly across tenants), shed what is expired or has
// sat past the CoDel bar, and put one request into service.
func (q *admitQueue) kick() {
	for !q.busy && q.depth > 0 && !q.srv.crashed {
		t := q.nextTenant()
		if t == nil {
			return
		}
		it := t.pop()
		q.depth--
		q.gDepth.Set(float64(q.depth))
		now := q.k.Now()

		// Dead-work drop: the client's call deadline already passed, so
		// no reply can be used — don't spend a service slot on it.
		if req := &it.m.req; q.cfg.DropExpired && req.deadline > 0 && now >= req.deadline {
			it.sp.Int("sojourn_us", int64((now-it.enqAt)/time.Microsecond))
			it.sp.EndStatus(spans.StatusFailed)
			q.countShed(req, shedExpired)
			it.m.unref()
			continue
		}

		// CoDel-lite: shed at most one request per interval while the
		// dequeue sojourn stays above target. Keeps the standing queue
		// delay near CoDelTarget without tail-dropping whole bursts.
		if q.cfg.CoDelTarget > 0 {
			soj := now - it.enqAt
			if soj <= q.cfg.CoDelTarget {
				q.aboveAt = 0
			} else if q.aboveAt == 0 {
				q.aboveAt = now
			} else if now-q.aboveAt >= q.cfg.CoDelInterval {
				q.aboveAt = now
				it.sp.Int("sojourn_us", int64(soj/time.Microsecond))
				it.sp.EndStatus(spans.StatusFailed)
				q.reject(it.m, shedCoDel)
				it.m.unref()
				continue
			}
		}

		it.sp.Int("sojourn_us", int64((now-it.enqAt)/time.Microsecond))
		it.sp.End()
		q.busy, q.serving = true, it
		q.k.AfterFunc(q.cfg.ServiceTime, admitFinish, q, nil)
		return
	}
}

// admitFinish is the prebound service-completion callback: execute
// the request in service against the broker, send the reply (unless
// the server crashed mid-service), and pull the next request.
func admitFinish(a0, _ any) {
	q := a0.(*admitQueue)
	it := q.serving
	q.busy, q.serving = false, queuedReq{}
	resp, alive := q.srv.handle(&it.m.req)
	if alive {
		q.mServed.Inc()
		it.m.answer(resp)
	}
	it.m.unref()
	q.evalBrownout()
	q.kick()
}

// evalBrownout moves the brownout level with queue-depth hysteresis:
// escalate at BrownoutHi, de-escalate at BrownoutLo, at most one step
// per BrownoutHold.
func (q *admitQueue) evalBrownout() {
	if q.cfg.BrownoutHi <= 0 {
		return
	}
	now := q.k.Now()
	if now-q.levelSince < q.cfg.BrownoutHold {
		return
	}
	switch {
	case q.depth >= q.cfg.BrownoutHi && q.level < 2:
		q.setLevel(q.level + 1)
	case q.depth <= q.cfg.BrownoutLo && q.level > 0:
		q.setLevel(q.level - 1)
	}
}

func (q *admitQueue) setLevel(level int) {
	prev := q.level
	q.level = level
	q.levelSince = q.k.Now()
	q.gLevel.Set(float64(level))
	q.rec.Emit(metrics.EvBrownout, q.name, int64(level), int64(prev), int64(q.depth))
}

// wipe drops every queued request without replies — the server
// crashed, so from the clients' side everything in flight simply
// times out.
func (q *admitQueue) wipe() {
	for _, t := range q.tenants {
		for t.len() > 0 {
			it := t.pop()
			it.sp.EndStatus(spans.StatusLeaked)
			q.countShed(&it.m.req, shedCrash)
			it.m.unref()
		}
	}
	q.depth = 0
	q.gDepth.Set(0)
	if q.level != 0 {
		q.setLevel(0)
	}
	q.levelSince = q.k.Now()
}
