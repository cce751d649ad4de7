package mpi

import (
	"fmt"

	"mpichgq/internal/sim"
	"mpichgq/internal/units"
)

// Request is a handle to a nonblocking operation (MPI_Request).
//
// A nonblocking receive is a state machine that the progress engine
// drives from callbacks, not a process. Its first step is scheduled
// where spawning a helper process that calls Recv would schedule the
// helper's, and each later step runs where that helper would resume,
// so Irecv runs the same events, at the same times and in the same
// order, as a helper process per request would.
type Request struct {
	r *Rank
	// comm is a receive's communicator, nil for a send.
	comm *Comm
	done bool
	err  error
	msg  Message
	// cond holds the processes blocked in Wait; the first Wait that
	// has to block takes it from the rank's pool, and completion
	// gives it back.
	cond *sim.Cond
	// post is a receive's entry in the rank's posted list, and
	// post.env its envelope once matched.
	post postedRecv
	// rdv waits for the data of a matched rendezvous envelope; only a
	// receive that takes the rendezvous path allocates it.
	rdv *sim.Waiter
}

// Done reports completion without blocking (MPI_Test).
func (q *Request) Done() bool { return q.done }

// Wait blocks until the operation completes and returns its error
// (MPI_Wait). The job's error handler applies here: a nonblocking
// operation's error is raised when it is waited on, so under
// ErrorsAreFatal Wait panics the calling process.
func (q *Request) Wait(ctx *sim.Ctx) error {
	if !q.done {
		if q.cond == nil {
			q.cond = q.r.takeCond()
		}
		for !q.done {
			q.cond.Wait(ctx)
		}
	}
	return q.r.handleErr(q.err)
}

// Message returns the received message after Wait on an Irecv
// request; it is nil for a send, an unfinished receive, or a receive
// that failed.
func (q *Request) Message() *Message {
	if q.comm == nil || !q.done || q.err != nil {
		return nil
	}
	return &q.msg
}

func (q *Request) complete(err error) {
	q.err = err
	q.done = true
	if c := q.cond; c != nil {
		// The woken processes see done and never touch c again.
		c.Broadcast()
		q.cond = nil
		q.r.putCond(c)
	}
}

// Isend starts a nonblocking send. The data is handed to a background
// helper process; Wait returns once the send has standard-mode
// completed (buffered or delivered).
func (r *Rank) Isend(ctx *sim.Ctx, comm *Comm, dest, tag int, n units.ByteSize, data any) (*Request, error) {
	if _, err := comm.globalRank(dest); err != nil {
		return nil, err
	}
	q := &Request{r: r}
	r.job.k.Spawn(r.isendName, func(sctx *sim.Ctx) {
		q.complete(r.Send(sctx, comm, dest, tag, n, data))
	})
	return q, nil
}

// Irecv starts a nonblocking receive.
func (r *Rank) Irecv(ctx *sim.Ctx, comm *Comm, src, tag int) (*Request, error) {
	gsrc := src
	if src != AnySource {
		var err error
		if gsrc, err = comm.globalRank(src); err != nil {
			return nil, err
		}
	}
	q := &Request{r: r, comm: comm}
	q.post = postedRecv{src: gsrc, ctx: comm.ctxID, tag: tag, q: q}
	k := r.job.k
	k.AtFunc(k.Now(), sim.PrioNormal, irecvStart, q, nil)
	return q, nil
}

// irecvStart is a nonblocking receive's first step: match an
// unexpected envelope, fail, or post the receive.
func irecvStart(a0, _ any) {
	q := a0.(*Request)
	env, err := q.r.tryMatch(q.comm, q.post.src, q.post.tag)
	switch {
	case err != nil:
		q.complete(err)
	case env != nil:
		q.matched(env)
	default:
		q.r.posted = append(q.r.posted, &q.post)
	}
}

// irecvWake is a posted receive's step once deliver has matched it or
// peerDown or failAllLocal has failed it; each takes it off the posted
// list as it schedules this.
func irecvWake(a0, _ any) {
	q := a0.(*Request)
	if q.post.err != nil {
		q.complete(q.post.err)
		return
	}
	q.matched(q.post.env)
}

// matched goes on with the envelope a receive claimed, waiting first
// for rendezvous data still in flight.
func (q *Request) matched(env *envelope) {
	if env.arrived {
		q.receive(env)
		return
	}
	q.post.env = env
	q.r.matchedRdv = append(q.r.matchedRdv, env)
	q.rdvStep()
}

// rdvStep waits on a matched rendezvous envelope until its data
// arrives or the sender fails, as Recv does.
func (q *Request) rdvStep() {
	env := q.post.env
	if !env.arrived && env.err == nil {
		if q.rdv == nil {
			q.rdv = q.r.job.k.NewWaiter(q.rdvStep)
		}
		env.ready.Await(q.rdv)
		return
	}
	q.r.dropMatchedRdv(env)
	if env.err != nil {
		q.complete(env.err)
		return
	}
	q.receive(env)
}

// receive completes the request with env's message.
func (q *Request) receive(env *envelope) {
	q.post.env = nil
	q.msg = q.r.takeMessage(q.comm, env)
	q.complete(nil)
}

// WaitAll waits for every request and returns the first error; the
// error handler applies as in Wait.
func WaitAll(ctx *sim.Ctx, reqs ...*Request) error {
	var first error
	for _, q := range reqs {
		if err := q.Wait(ctx); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// PersistentRequest is a reusable communication request
// (MPI_Send_init / MPI_Recv_init): the envelope is fixed once, then
// Start/Wait cycles repeat it — the classic idiom for fixed
// communication patterns like halo exchanges.
type PersistentRequest struct {
	rank *Rank
	send bool
	comm *Comm
	peer int // dest or src
	tag  int
	size units.ByteSize
	data any

	cur *Request
}

// SendInit creates a persistent send request. Data set here is sent
// on every Start; SetData replaces it between iterations.
func (r *Rank) SendInit(comm *Comm, dest, tag int, n units.ByteSize, data any) (*PersistentRequest, error) {
	if _, err := comm.globalRank(dest); err != nil {
		return nil, err
	}
	return &PersistentRequest{rank: r, send: true, comm: comm, peer: dest, tag: tag, size: n, data: data}, nil
}

// RecvInit creates a persistent receive request.
func (r *Rank) RecvInit(comm *Comm, src, tag int) (*PersistentRequest, error) {
	if src != AnySource {
		if _, err := comm.globalRank(src); err != nil {
			return nil, err
		}
	}
	return &PersistentRequest{rank: r, comm: comm, peer: src, tag: tag}, nil
}

// SetData replaces the payload sent by the next Start (send requests
// only).
func (p *PersistentRequest) SetData(n units.ByteSize, data any) {
	p.size = n
	p.data = data
}

// Start begins one iteration of the persistent operation. Starting an
// already-active request is an error (MPI semantics).
func (p *PersistentRequest) Start(ctx *sim.Ctx) error {
	if p.cur != nil && !p.cur.Done() {
		return fmt.Errorf("mpi: persistent request started while active")
	}
	var err error
	if p.send {
		p.cur, err = p.rank.Isend(ctx, p.comm, p.peer, p.tag, p.size, p.data)
	} else {
		p.cur, err = p.rank.Irecv(ctx, p.comm, p.peer, p.tag)
	}
	return err
}

// Wait blocks until the current iteration completes. For receives the
// message is available afterwards via Message.
func (p *PersistentRequest) Wait(ctx *sim.Ctx) error {
	if p.cur == nil {
		return fmt.Errorf("mpi: persistent request waited before Start")
	}
	return p.cur.Wait(ctx)
}

// Message returns the last completed receive's message.
func (p *PersistentRequest) Message() *Message {
	if p.cur == nil {
		return nil
	}
	return p.cur.Message()
}
