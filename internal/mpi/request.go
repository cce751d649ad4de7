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
//
// Wait ends a request's life (MPI-1.1 §3.7.3): it returns the outcome
// and puts the request back on its rank's freelist, so the handle is
// dead afterwards. Irecv and Isend take their requests from there.
type Request struct {
	// r is the owning rank, nil once Wait has freed the request.
	r *Rank
	// comm is a receive's communicator, nil for a send.
	comm *Comm
	done bool
	// waiting marks the one process that may block in Wait.
	waiting bool
	err     error
	msg     Message
	// cond wakes the process blocked in Wait; Wait takes it from the
	// rank's pool when it has to block, and completion gives it back.
	cond *sim.Cond
	// post is a receive's entry in the rank's posted list, and
	// post.env its envelope once matched.
	post postedRecv
	// rdv waits for the data of a matched rendezvous envelope. It is
	// bound to this request's rdvStep, so it outlives a recycling: the
	// first receive to take the rendezvous path allocates it.
	rdv *sim.Waiter
}

// takeRequest returns a zeroed request of r from the rank's freelist,
// or a new one; a recycled request keeps its rdv waiter.
func (r *Rank) takeRequest(comm *Comm) *Request {
	q := takeFree(&r.reqFree)
	*q = Request{r: r, comm: comm, rdv: q.rdv}
	return q
}

// Wait blocks until the operation completes and returns its outcome
// (MPI_Wait): the received message, zero for a send, and the error.
// The request is freed before the job's error handler applies: a
// nonblocking operation's error is raised when it is waited on, so
// under ErrorsAreFatal Wait panics the calling process. A nil request
// (MPI_REQUEST_NULL) returns at once. Only one process may wait on a
// request, and only once; Wait panics on a second waiter and on a
// request that an earlier Wait freed and no Irecv or Isend has taken
// again.
func (q *Request) Wait(ctx *sim.Ctx) (Message, error) {
	if q == nil {
		return Message{}, nil
	}
	r := q.r
	if r == nil {
		panic("mpi: Wait on a request that an earlier Wait freed")
	}
	if q.waiting {
		panic(fmt.Sprintf("mpi: rank %d: a second process waits on one request", r.id))
	}
	if !q.done {
		q.waiting = true
		q.cond = r.takeCond()
		for !q.done {
			q.cond.Wait(ctx)
		}
	}
	msg, err := q.msg, q.err
	*q = Request{rdv: q.rdv}
	r.reqFree = append(r.reqFree, q)
	return msg, r.handleErr(err)
}

func (q *Request) complete(err error) {
	q.err = err
	q.done = true
	if c := q.cond; c != nil {
		// The woken process sees done and never touches c again.
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
	q := r.takeRequest(nil)
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
	q := r.takeRequest(comm)
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

// WaitAll waits for every request in order, frees each and sets its
// handle to nil (MPI_REQUEST_NULL), and returns the first error; the
// error handler applies as in Wait.
func WaitAll(ctx *sim.Ctx, reqs ...*Request) error {
	var first error
	for i, q := range reqs {
		if _, err := q.Wait(ctx); err != nil && first == nil {
			first = err
		}
		reqs[i] = nil
	}
	return first
}
