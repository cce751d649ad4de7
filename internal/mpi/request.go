package mpi

import (
	"fmt"

	"mpichgq/internal/sim"
	"mpichgq/internal/units"
)

// Request is a handle to a nonblocking operation (MPI_Request).
type Request struct {
	done bool
	err  error
	msg  *Message // for receives
	cond *sim.Cond
}

// Done reports completion without blocking (MPI_Test).
func (q *Request) Done() bool { return q.done }

// Wait blocks until the operation completes and returns its error
// (MPI_Wait).
func (q *Request) Wait(ctx *sim.Ctx) error {
	for !q.done {
		q.cond.Wait(ctx)
	}
	return q.err
}

// Message returns the received message after Wait on an Irecv request.
func (q *Request) Message() *Message { return q.msg }

func (q *Request) complete(msg *Message, err error) {
	q.msg = msg
	q.err = err
	q.done = true
	q.cond.Broadcast()
}

// Isend starts a nonblocking send. The data is handed to a background
// helper process; Wait returns once the send has standard-mode
// completed (buffered or delivered).
func (r *Rank) Isend(ctx *sim.Ctx, comm *Comm, dest, tag int, n units.ByteSize, data any) (*Request, error) {
	if _, err := comm.globalRank(dest); err != nil {
		return nil, err
	}
	q := &Request{cond: sim.NewCond(r.job.k)}
	r.job.k.Spawn(r.isendName, func(sctx *sim.Ctx) {
		err := r.Send(sctx, comm, dest, tag, n, data)
		q.complete(nil, err)
	})
	return q, nil
}

// Irecv starts a nonblocking receive.
func (r *Rank) Irecv(ctx *sim.Ctx, comm *Comm, src, tag int) (*Request, error) {
	if src != AnySource {
		if _, err := comm.globalRank(src); err != nil {
			return nil, err
		}
	}
	q := &Request{cond: sim.NewCond(r.job.k)}
	r.job.k.Spawn(r.irecvName, func(rctx *sim.Ctx) {
		msg, err := r.Recv(rctx, comm, src, tag)
		q.complete(msg, err)
	})
	return q, nil
}

// WaitAll waits for every request and returns the first error.
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
