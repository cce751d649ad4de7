package ctrlplane

import (
	"errors"
	"fmt"
	"time"

	gq "mpichgq/internal/core"
	"mpichgq/internal/gara"
	"mpichgq/internal/metrics"
	"mpichgq/internal/sim"
	"mpichgq/internal/spans"
)

// Errors a Call can fail with locally (as opposed to an error the
// server answered).
var (
	// ErrBreakerOpen: the per-RM circuit breaker rejected the call
	// without sending anything.
	ErrBreakerOpen = errors.New("ctrlplane: circuit breaker open")
	// ErrDeadline: no reply arrived within the call deadline across
	// all retries.
	ErrDeadline = errors.New("ctrlplane: call deadline exceeded")
	// ErrOverloaded: the server's admission control shed the call and
	// the retry budget ran out. Match with errors.Is; the concrete
	// *OverloadedError carries the server's retry-after hint.
	ErrOverloaded = errors.New("ctrlplane: server overloaded")
)

// OverloadedError is an admission-control rejection: the server is up
// but shedding load, and RetryAfter is its estimate of when it will
// have drained enough backlog to admit a retry. errors.Is(err,
// ErrOverloaded) matches it.
type OverloadedError struct {
	RM         string
	RetryAfter time.Duration
}

func (e *OverloadedError) Error() string {
	return fmt.Sprintf("ctrlplane: server overloaded (rm %s, retry after %v)",
		e.RM, e.RetryAfter)
}

// Is makes errors.Is(err, ErrOverloaded) succeed.
func (e *OverloadedError) Is(target error) bool { return target == ErrOverloaded }

// callError is a call's failure other than an overload: an open
// breaker, a spent deadline, or the server's refusal. It keeps the
// parts and formats them only when read, because most failed calls
// are counted and never printed. errors.Is sees through it to base.
type callError struct {
	// base is ErrBreakerOpen or ErrDeadline, nil for a refusal.
	base     error
	rm       string
	method   string // ErrDeadline: the call's method
	attempts int    // ErrDeadline: attempts made
	text     string // refusal: the server's error text
}

func (e *callError) Error() string {
	switch e.base {
	case nil:
		return refusal(e.rm, e.text)
	case ErrDeadline:
		return fmt.Sprintf("%v (rm %s, %s, %d attempts)", e.base, e.rm, e.method, e.attempts)
	default:
		return e.base.Error() + " (rm " + e.rm + ")"
	}
}

func (e *callError) Unwrap() error { return e.base }

// refusal is the text of the error for a server's refusal errText.
func refusal(rm, errText string) string { return "ctrlplane: " + rm + " refused: " + errText }

// Conn is the coordinator's client stub for one domain: it sends
// requests over the lossy channel pair and implements the reliability
// layer — per-attempt timeout, deadline-bounded retries paced by
// gq.Backoff, and the circuit breaker. Retries reuse the request ID,
// so the server's reply cache keeps retried operations idempotent.
type Conn struct {
	k    *sim.Kernel
	name string
	srv  *Server
	// toSrv carries requests, fromSrv replies; loss on either leg
	// looks identical to the client (a timeout).
	toSrv, fromSrv *Chan

	// Timeout is the per-attempt reply timeout.
	Timeout time.Duration
	// Deadline is the total budget for one Call across all retries.
	Deadline time.Duration
	// Backoff paces the retries.
	Backoff *gq.Backoff
	// Breaker, when set, short-circuits calls while the RM is bad.
	Breaker *Breaker
	// Tenant names the requesting principal for the server's fair
	// admission queue; empty means the domain name (a single shared
	// client).
	Tenant string

	nextReq uint64
	idHash  uint64 // lazy FNV of name/tenant, keys direct-call traces
	waiting map[uint64]*call
	free    []*call // finished calls, for reuse
	// freeMsgs and freeReplies hold the stub's request and reply
	// records once every reference to them is gone; madeMsgs and
	// madeReplies count the records ever made.
	freeMsgs              []*msg
	freeReplies           []*reply
	madeMsgs, madeReplies int
	errBreaker            error // the open-breaker rejection, built once

	mAttempts, mRetries, mTimeouts, mFailures, mRejected, mOverloads *metrics.Counter
	rec                                                              *metrics.Recorder
	tr                                                               *spans.Tracer
}

// NewConn wires a client stub for srv over the given channel pair.
func NewConn(k *sim.Kernel, srv *Server, toSrv, fromSrv *Chan,
	timeout, deadline time.Duration, backoff *gq.Backoff, breaker *Breaker) *Conn {
	reg := k.Metrics()
	name := srv.Name()
	return &Conn{
		k: k, name: name, srv: srv, toSrv: toSrv, fromSrv: fromSrv,
		Timeout: timeout, Deadline: deadline, Backoff: backoff, Breaker: breaker,
		waiting:    make(map[uint64]*call),
		errBreaker: &callError{base: ErrBreakerOpen, rm: name},
		mAttempts: reg.Counter("ctrl_rpc_attempts_total",
			"control RPC attempts (including retries)", "rm", name),
		mRetries: reg.Counter("ctrl_rpc_retries_total",
			"control RPC retransmissions", "rm", name),
		mTimeouts: reg.Counter("ctrl_rpc_timeouts_total",
			"control RPC attempts that timed out", "rm", name),
		mFailures: reg.Counter("ctrl_rpc_failures_total",
			"control RPCs abandoned at their deadline", "rm", name),
		mRejected: reg.Counter("ctrl_rpc_breaker_rejects_total",
			"control RPCs rejected by an open circuit breaker", "rm", name),
		mOverloads: reg.Counter("ctrl_rpc_overloads_total",
			"control RPC attempts shed by server admission control", "rm", name),
		rec: reg.Events(),
		tr:  k.Tracer(),
	}
}

// Name returns the domain this stub talks to.
func (c *Conn) Name() string { return c.name }

// Server returns the wrapped server (tests and gqctl reach through).
func (c *Conn) Server() *Server { return c.srv }

// Chans returns the stub's request and reply channels, so that a test
// can impair this stub alone (fault scenarios reach a domain's primary
// stub only).
func (c *Conn) Chans() (toSrv, fromSrv *Chan) { return c.toSrv, c.fromSrv }

// callOp is what a call step asks its driver to do next.
type callOp uint8

const (
	callDone  callOp = iota // the call has its result
	callWait                // wait at most d for the reply on cond
	callSleep               // sleep d
)

// call is one reliable request/reply exchange: a state machine whose
// steps (start, afterWait, afterSleep) hold the breaker, span, retry,
// deadline and overload logic. Each step returns what to wait for
// next. Conn.call drives the steps from a process with WaitTimeout and
// Sleep; Conn.Reserve drives them from a Waiter with AwaitTimeout and
// WakeAfter. Finished calls go back to their Conn's freelist: a late
// reply reaches a call only through Conn.waiting, which the call
// leaves when it finishes.
type call struct {
	c   *Conn
	req request
	// m is the record every attempt transmits, made on the first.
	m        *msg
	sp       *spans.Span
	deadline time.Duration
	attempt  int
	// cond is where the caller waits for the reply; resp is the reply
	// once answered is set.
	cond     *sim.Cond
	resp     response
	answered bool
	// shed marks a backoff sleep after an overload reply, whose
	// retry-after hint is retryAfter.
	shed       bool
	retryAfter time.Duration
	err        error

	// The callback form: w runs wake, which continues at op's step;
	// timer is the reply wait's expiry; done receives the result.
	w     *sim.Waiter
	op    callOp
	timer sim.Timer
	done  func(resID uint64, err error)
}

// newCall takes a call record from the freelist, or allocates one.
func (c *Conn) newCall(method string, req request) *call {
	cl := takeFree(&c.free)
	if cl == nil {
		cl = &call{c: c, cond: sim.NewCond(c.k)}
	}
	cl.req = req
	cl.req.method = method
	return cl
}

// release returns a finished call to the freelist, dropping what it
// references, its request record included.
func (c *Conn) release(cl *call) {
	if cl.m != nil {
		cl.m.unref()
	}
	*cl = call{c: c, cond: cl.cond, w: cl.w}
	c.free = append(c.free, cl)
}

// start opens the call's span, consults the breaker, registers the
// call for its reply and sends the first attempt.
func (cl *call) start() (callOp, time.Duration) {
	c := cl.c
	req := &cl.req
	cl.sp = c.tr.Begin(req.trace, req.parent, spanName(rpcSpanNames, req.method), c.name)
	if c.Breaker != nil && !c.Breaker.Allow() {
		c.mRejected.Inc()
		c.rec.Emit(metrics.EvCtrlRPC, req.method, 0, 0, rpcRejected)
		cl.sp.Int("breaker_open", 1)
		cl.sp.EndStatus(spans.StatusFailed)
		cl.err = c.errBreaker
		return callDone, 0
	}
	c.nextReq++
	req.reqID = c.nextReq
	req.parent = cl.sp.SpanID()
	req.from = c.Tenant
	if req.from == "" {
		req.from = c.name
	}
	cl.sp.Int("req", int64(req.reqID))
	cl.deadline = c.k.Now() + c.Deadline
	req.deadline = cl.deadline
	c.waiting[req.reqID] = cl
	c.Backoff.Reset()
	cl.m = c.newMsg(req)
	return cl.send()
}

// send transmits the next attempt and waits for its reply, at most the
// per-attempt Timeout and never past the deadline.
func (cl *call) send() (callOp, time.Duration) {
	c := cl.c
	cl.attempt++
	c.mAttempts.Inc()
	c.transmit(cl.m)
	wait := c.Timeout
	if remain := cl.deadline - c.k.Now(); wait > remain {
		wait = remain
	}
	if wait > 0 {
		return callWait, wait
	}
	return cl.afterWait()
}

// afterWait handles the end of a reply wait: an overload shed, an
// answer, or a timeout.
func (cl *call) afterWait() (callOp, time.Duration) {
	c := cl.c
	id, attempt := int64(cl.req.reqID), int64(cl.attempt)
	if cl.answered && cl.resp.overloaded {
		// Admission control shed the call: the server is alive (no
		// breaker failure), just saturated. Honor its retry-after
		// hint — backing off to exactly when the server expects
		// capacity is what keeps retries from becoming the storm.
		c.mOverloads.Inc()
		c.rec.Emit(metrics.EvCtrlRPC, cl.req.method, id, attempt, rpcShed)
		if c.Breaker != nil {
			c.Breaker.Success()
		}
		cl.retryAfter = time.Duration(cl.resp.retryAfterNS)
		cl.answered, cl.shed = false, true
		c.Backoff.Hint(cl.retryAfter)
		return cl.pause()
	}
	if cl.answered {
		if c.Breaker != nil {
			c.Breaker.Success()
		}
		c.rec.Emit(metrics.EvCtrlRPC, cl.req.method, id, attempt, rpcOK)
		cl.sp.Int("attempts", attempt)
		if cl.resp.ok {
			cl.sp.End()
		} else {
			cl.sp.EndStatus(spans.StatusFailed)
		}
		return cl.finish(nil)
	}
	c.mTimeouts.Inc()
	c.rec.Emit(metrics.EvCtrlRPC, cl.req.method, id, attempt, rpcTimeout)
	if c.k.Now() >= cl.deadline {
		// The breaker counts whole failed calls, not individual
		// attempt timeouts: retries absorbing channel loss are the
		// reliability layer working, while a call that burns its
		// entire deadline means the RM itself is unresponsive.
		c.mFailures.Inc()
		if c.Breaker != nil {
			c.Breaker.Failure()
		}
		cl.sp.Int("attempts", attempt)
		cl.sp.EndStatus(spans.StatusFailed)
		return cl.finish(&callError{base: ErrDeadline, rm: c.name,
			method: cl.req.method, attempts: cl.attempt})
	}
	cl.shed = false
	return cl.pause()
}

// pause sleeps the next backoff interval, cut at the deadline.
func (cl *call) pause() (callOp, time.Duration) {
	c := cl.c
	sleep := c.Backoff.Next()
	if over := c.k.Now() + sleep; over > cl.deadline {
		sleep = cl.deadline - c.k.Now()
	}
	if sleep > 0 {
		return callSleep, sleep
	}
	return cl.afterSleep()
}

// afterSleep retries, unless an overloaded call has run out of
// deadline.
func (cl *call) afterSleep() (callOp, time.Duration) {
	c := cl.c
	if cl.shed && c.k.Now() >= cl.deadline {
		c.mFailures.Inc()
		cl.sp.Int("attempts", int64(cl.attempt))
		cl.sp.Int("overloaded", 1)
		cl.sp.EndStatus(spans.StatusFailed)
		return cl.finish(&OverloadedError{RM: c.name, RetryAfter: cl.retryAfter})
	}
	c.mRetries.Inc()
	return cl.send()
}

// finish records the call's result and stops it taking replies.
func (cl *call) finish(err error) (callOp, time.Duration) {
	delete(cl.c.waiting, cl.req.reqID)
	cl.err = err
	return callDone, 0
}

// call runs one reliable request/reply exchange from inside a sim
// process. It retries under the per-attempt Timeout until the Deadline
// and trips the breaker bookkeeping on the way.
func (c *Conn) call(ctx *sim.Ctx, method string, req request) (response, error) {
	cl := c.newCall(method, req)
	op, d := cl.start()
	for op != callDone {
		if op == callWait {
			cl.cond.WaitTimeout(ctx, d)
			op, d = cl.afterWait()
		} else {
			ctx.Sleep(d)
			op, d = cl.afterSleep()
		}
	}
	resp, err := cl.resp, cl.err
	c.release(cl)
	return resp, err
}

// drive carries out what a step of a callback-form call asked for.
func (cl *call) drive(op callOp, d time.Duration) {
	cl.op = op
	switch op {
	case callWait:
		cl.timer = cl.cond.AwaitTimeout(cl.w, d)
	case callSleep:
		cl.w.WakeAfter(d)
	default:
		c, resp, err, done := cl.c, cl.resp, cl.err, cl.done
		c.release(cl)
		if err == nil && !resp.ok {
			err = &callError{rm: c.name, text: resp.errText}
		}
		done(resp.resID, err)
	}
}

// wake is a callback-form call's Waiter callback.
func (cl *call) wake() {
	if cl.op == callWait {
		cl.timer.Cancel()
		cl.drive(cl.afterWait())
		return
	}
	cl.drive(cl.afterSleep())
}

// transmit ships m to the server; each delivery the request channel
// schedules holds a reference to it. The server dispatches the request
// when the channel delivers it — inline when admission control is off,
// through the admission queue when on (the reply then comes whenever
// service reaches it); a crashed server produces no reply at all.
func (c *Conn) transmit(m *msg) {
	m.refs += c.toSrv.send(m.req.reqID, deliverMsg, m, nil)
}

// deliver completes a pending call; late and duplicate replies (the
// call already answered, timed out, or abandoned) are dropped.
func (c *Conn) deliver(resp *response) {
	cl := c.waiting[resp.reqID]
	if cl == nil || cl.answered {
		return
	}
	cl.resp, cl.answered = *resp, true
	cl.cond.Broadcast()
}

// Reserve books a single-domain one-shot reservation through this
// stub (the serving-system path: no two-phase coordination, just this
// domain's broker) and calls done with the reservation id, or with an
// error that is either local (ErrBreakerOpen, ErrDeadline, or an
// unwrapped *OverloadedError) or the server's refusal text. It needs
// no process: the call waits as a Waiter, and done runs in kernel
// context, at the instant and in the order in which a process's call
// would have returned. done may run before Reserve returns.
func (c *Conn) Reserve(spec gara.Spec, done func(resID uint64, err error)) {
	c.callback(methodReserve, request{spec: spec, trace: c.nextCallTrace()}, done)
}

// callback starts a call in the callback form: it waits as a Waiter,
// and done runs in kernel context with the result.
func (c *Conn) callback(method string, req request, done func(resID uint64, err error)) {
	cl := c.newCall(method, req)
	if cl.w == nil {
		cl.w = c.k.NewWaiter(cl.wake)
	}
	cl.done = done
	cl.drive(cl.start())
}

// nextCallTrace derives a deterministic per-call trace ID for direct
// Conn calls (coordinator calls derive theirs per co-reservation).
// The key mixes the stub's identity hash with the upcoming request
// id, so tenants sharing a domain get distinct traces.
func (c *Conn) nextCallTrace() spans.TraceID {
	if c.idHash == 0 {
		c.idHash = strHash(c.name + "/" + c.Tenant)
	}
	return spans.DeriveTrace(spans.NSReservation, c.idHash^(c.nextReq+1))
}

// strHash is FNV-1a, for deterministic trace keying by stub identity.
func strHash(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// rpcError converts a server-side refusal into an error.
func rpcError(resp response) error {
	if resp.ok {
		return nil
	}
	return errors.New(resp.errText)
}
