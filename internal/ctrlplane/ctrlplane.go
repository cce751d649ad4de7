// Package ctrlplane simulates the wide-area control channel between
// GARA's co-reservation coordinator and each administrative domain's
// bandwidth broker (NetworkRM). The paper's GARA coordinates
// "resources spanning multiple administrative domains" over Globus
// control connections — slow, lossy, and failure-prone compared to an
// in-process call. This package makes that explicit: every
// reservation operation becomes a request/reply exchange over a
// channel with injectable delay, loss, and duplication, against a
// server that can crash (losing its session state) and restart
// (replaying its journal).
//
// Reliability is layered the way real brokers do it:
//
//   - requests carry request IDs; servers keep a reply cache, so a
//     retried request is answered idempotently rather than re-executed;
//   - clients retry under a per-attempt timeout and a per-call
//     deadline, paced by gq.Backoff;
//   - a per-RM circuit breaker trips after consecutive timeouts,
//     sheds load while the RM is down, and doubles as the watchdog's
//     RepairGate;
//   - the two-phase prepare/commit protocol (gara.Prepared) bounds
//     what an ill-timed crash can leak: uncommitted bookings expire
//     with their lease, and a crashed server's journal replay
//     (NetworkRM.Recover) reconciles what its memory forgot.
package ctrlplane

import (
	"time"

	"mpichgq/internal/gara"
	"mpichgq/internal/metrics"
	"mpichgq/internal/sim"
	"mpichgq/internal/spans"
)

// request is one control-plane message from coordinator to server.
// Retries of the same logical operation reuse the request ID, which is
// what makes the server's reply cache give idempotency.
type request struct {
	reqID  uint64
	method string // "prepare", "commit", "abort", "reserve", "cancel"
	resID  uint64 // commit/abort/cancel: the reservation being acted on
	spec   gara.Spec
	ttl    time.Duration // prepare: lease TTL
	// from names the requesting tenant; the admission queue dequeues
	// fairly across tenants so one storming client cannot starve the
	// rest.
	from string
	// deadline is the client's absolute call deadline (kernel time).
	// The admission queue drops requests already past it at dequeue —
	// serving them would be dead work the client can no longer use.
	deadline time.Duration
	// trace/parent propagate the coordinator's span context so
	// client-attempt and server-execution spans link into one causal
	// trace per co-reservation.
	trace  spans.TraceID
	parent spans.SpanID
}

// msg is one request in flight: a copy of the call's request, made
// per attempt, and the stub that sent it, which is where the reply
// goes. The request channel delivers it to the server, and the
// admission queue holds it while it waits; nothing changes it after
// the send, so a duplicate delivers the same record twice.
type msg struct {
	c   *Conn
	req request
}

// deliverMsg is the request channel's prebound delivery callback.
func deliverMsg(a0, _ any) {
	m := a0.(*msg)
	m.c.srv.dispatch(m)
}

// answer sends resp back to m's stub. Each reply is a record of its
// own: a duplicated request can be answered twice, differently.
func (m *msg) answer(resp response) {
	m.c.fromSrv.send(m.req.reqID, deliverReply, m.c, &resp)
}

// deliverReply is the reply channel's prebound delivery callback.
func deliverReply(a0, a1 any) { a0.(*Conn).deliver(a1.(*response)) }

// response is the server's reply.
type response struct {
	reqID       uint64
	ok          bool
	errText     string
	notInDomain bool   // prepare/reserve refusal because no hop is owned
	resID       uint64 // prepare/reserve: the reservation id created
	// overloaded marks an admission-control rejection (queue full,
	// CoDel shed, brownout); retryAfterNS tells the client when the
	// server expects to have drained enough capacity to admit it.
	overloaded   bool
	retryAfterNS int64
}

// Interned method and fate names for ctrl.* flight-recorder events.
const (
	methodPrepare = "prepare"
	methodCommit  = "commit"
	methodAbort   = "abort"
	methodReserve = "reserve"
	methodCancel  = "cancel"
)

// Fates for EvCtrlMsg.V2.
const (
	msgDelivered = 0
	msgDropped   = 1
	msgDuplicate = 2
)

// Outcomes for EvCtrlRPC.V3.
const (
	rpcOK       = 0
	rpcTimeout  = 1
	rpcRejected = 2
	rpcShed     = 3
)

// Interned span names per method, client ("rpc.") and server
// ("server.") side, so the tracing hot path never concatenates.
var (
	rpcSpanNames = map[string]string{
		methodPrepare: "rpc.prepare",
		methodCommit:  "rpc.commit",
		methodAbort:   "rpc.abort",
		methodReserve: "rpc.reserve",
		methodCancel:  "rpc.cancel",
	}
	serverSpanNames = map[string]string{
		methodPrepare: "server.prepare",
		methodCommit:  "server.commit",
		methodAbort:   "server.abort",
		methodReserve: "server.reserve",
		methodCancel:  "server.cancel",
	}
)

func spanName(names map[string]string, method string) string {
	if n, ok := names[method]; ok {
		return n
	}
	return "rpc.call"
}

// Chan is one direction of a control channel: it delivers scheduled
// callbacks after a (jittered) propagation delay, dropping or
// duplicating each message per the current impairment settings. All
// randomness comes from its own child RNG so control-plane draws never
// perturb the data plane's sequence.
type Chan struct {
	k    *sim.Kernel
	name string // interned: "<domain>/req" or "<domain>/rep"
	rng  *sim.RNG
	rec  *metrics.Recorder

	// Delay is the one-way propagation delay; Jitter its multiplicative
	// noise bound (each delivery scaled by [1-Jitter, 1+Jitter]).
	Delay  time.Duration
	Jitter float64

	loss float64
	dup  float64

	mDelivered, mDropped, mDup *metrics.Counter
}

func newChan(k *sim.Kernel, name string, delay time.Duration, jitter float64) *Chan {
	reg := k.Metrics()
	return &Chan{
		k: k, name: name,
		rng:   sim.NewRNG(k.RNG().Int63()),
		rec:   reg.Events(),
		Delay: delay, Jitter: jitter,
		mDelivered: reg.Counter("ctrl_msgs_delivered_total",
			"control messages delivered", "chan", name),
		mDropped: reg.Counter("ctrl_msgs_dropped_total",
			"control messages lost in transit", "chan", name),
		mDup: reg.Counter("ctrl_msgs_duplicated_total",
			"control messages duplicated in transit", "chan", name),
	}
}

// SetLoss sets the per-message drop probability.
func (c *Chan) SetLoss(p float64) { c.loss = p }

// SetDup sets the per-message duplication probability.
func (c *Chan) SetDup(p float64) { c.dup = p }

// send schedules deliver(a0, a1) after the channel delay, subject to
// loss and duplication; a duplicate delivers the same arguments again.
// reqID only labels the flight-recorder event.
func (c *Chan) send(reqID uint64, deliver func(a0, a1 any), a0, a1 any) {
	if c.loss > 0 && c.rng.Float64() < c.loss {
		c.mDropped.Inc()
		c.rec.Emit(metrics.EvCtrlMsg, c.name, int64(reqID), msgDropped, 0)
		return
	}
	c.k.AfterFunc(c.delay(), deliver, a0, a1)
	c.mDelivered.Inc()
	c.rec.Emit(metrics.EvCtrlMsg, c.name, int64(reqID), msgDelivered, 0)
	if c.dup > 0 && c.rng.Float64() < c.dup {
		c.k.AfterFunc(c.delay(), deliver, a0, a1)
		c.mDup.Inc()
		c.rec.Emit(metrics.EvCtrlMsg, c.name, int64(reqID), msgDuplicate, 0)
	}
}

func (c *Chan) delay() time.Duration {
	d := c.Delay
	if c.Jitter > 0 {
		d = time.Duration(float64(d) * c.rng.Jitter(c.Jitter))
	}
	return d
}
