package mpi

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"mpichgq/internal/globusio"
	"mpichgq/internal/metrics"
	"mpichgq/internal/sim"
	"mpichgq/internal/units"
)

// Wildcards for Recv source and tag.
const (
	AnySource = -1
	AnyTag    = -1
)

// ErrRankFinished is returned when a communication partner's
// connection has shut down.
var ErrRankFinished = errors.New("mpi: peer connection closed")

// Message is a received point-to-point message.
type Message struct {
	Src  int // sender's rank in the communicator used for Recv
	Tag  int
	Len  units.ByteSize
	Data any
}

// wireKind discriminates protocol messages on a connection.
type wireKind uint8

const (
	kindEager wireKind = iota
	kindRTS
	kindCTS
	kindRdvData
)

// wireMsg is the marker object carried in the TCP stream for every
// MPI-level message. Markers travel as *wireMsg from the job's
// freelist (see writeWire), and the receiving reader gives each back
// once it has read it.
type wireMsg struct {
	kind wireKind
	src  int // global rank of sender
	ctx  int // communicator context id
	tag  int
	size units.ByteSize
	data any
	seq  uint64 // rendezvous transaction id
	// sentAt is the sim time Send was called, carried so the receiver
	// can observe one-way latency.
	sentAt time.Duration
}

// envelope is a message known to the receiver (arrived eagerly, or
// announced by RTS with data still in flight). Envelopes come from a
// per-rank freelist and go back to it once a receive has copied them
// into a Message, a rendezvous envelope's ready Cond to the rank's
// Cond pool with it. A rendezvous envelope that failed (err set) is
// dropped instead.
type envelope struct {
	src     int // global rank
	ctx     int
	tag     int
	size    units.ByteSize
	data    any
	arrived bool      // data present
	rdvSeq  uint64    // for RTS envelopes
	rdvFrom int       // global rank to send CTS to
	matched bool      // a posted recv claimed it
	ready   *sim.Cond // signalled when data arrives (rendezvous)
	// err marks a rendezvous envelope whose data will never arrive
	// (the sender died between RTS and data); signalled via ready.
	err    error
	sentAt time.Duration
}

// postedRecv is a blocked or nonblocking receive awaiting a match.
type postedRecv struct {
	src int // global rank or AnySource
	ctx int
	tag int
	env *envelope
	err error
	// cond wakes a blocked Recv; q is set instead for a nonblocking
	// receive.
	cond *sim.Cond
	q    *Request
}

// wake resumes the receive once its env or err is set. The caller has
// taken p off the posted list, so each receive is woken exactly once.
// A nonblocking receive's next step is scheduled at the instant and
// priority at which the Cond schedules a blocked process's wakeup.
func (p *postedRecv) wake(k *sim.Kernel) {
	if p.q != nil {
		k.AtFunc(k.Now(), sim.PrioNormal, irecvWake, p.q, nil)
		return
	}
	p.cond.Broadcast()
}

// peerDown fails pending and future receives from a finished or
// failed peer, and releases rendezvous senders waiting on its
// clear-to-send. A cleanly finalized peer yields ErrRankFinished and
// leaves wildcard receives alone; a crashed peer yields the typed
// *RankFailedError and also completes wildcard (AnySource) receives
// with error, per the MPICH fault-tolerance model. conn identifies
// the connection whose reader observed the shutdown: if a newer
// connection to the peer has already replaced it (the peer
// restarted), the teardown is stale and skipped.
func (r *Rank) peerDown(peer int, conn *globusio.IO) {
	if cur := r.conns[peer]; cur != nil && cur != conn {
		return // superseded by the peer's new incarnation
	} else if cur != nil {
		// Close our side too: the peer's FIN alone leaves the
		// connection half-closed, and Finalize no longer sees it.
		cur.Close()
		delete(r.conns, peer)
	}
	if r.deadPeers == nil {
		r.deadPeers = make(map[int]bool)
	}
	r.deadPeers[peer] = true
	r.wired.Broadcast() // wake senders blocked on the reconnect window
	err := error(ErrRankFinished)
	crashed := r.job.failed[peer]
	if crashed {
		err = &RankFailedError{Rank: peer}
	}
	kept := r.posted[:0]
	for _, p := range r.posted {
		if p.src == peer || (crashed && p.src == AnySource) {
			p.err = err
			p.wake(r.job.k)
			continue
		}
		kept = append(kept, p)
	}
	r.posted = kept
	for _, s := range r.pendingSends() {
		if s.peer == peer && !s.cts {
			s.err = err
			s.cond.Broadcast()
		}
	}
	// Rendezvous envelopes announced by the dead peer whose data will
	// never arrive: fail them so blocked receivers wake.
	failEnv := func(e *envelope) {
		if e.src == peer && !e.arrived && e.ready != nil && e.err == nil {
			e.err = err
			e.ready.Broadcast()
		}
	}
	for _, e := range r.matchedRdv {
		failEnv(e)
	}
	for _, e := range r.unexpected {
		failEnv(e)
	}
}

// rdvSend tracks a sender-side rendezvous awaiting CTS.
type rdvSend struct {
	peer int
	cond *sim.Cond
	cts  bool
	err  error
}

// putSend ends rendezvous send seq once its sender has stopped
// waiting: it leaves rdvPending, the only place CTS and the failure
// paths find it, and goes back to the rank's freelist with its Cond.
func (r *Rank) putSend(seq uint64, s *rdvSend) {
	delete(r.rdvPending, seq)
	r.putCond(s.cond)
	*s = rdvSend{}
	r.sendFree = append(r.sendFree, s)
}

// pendingSends returns the rendezvous sends awaiting CTS in the order
// they started, so that failing them wakes their senders in that
// order rather than in Go's map order.
func (r *Rank) pendingSends() []*rdvSend {
	seqs := make([]uint64, 0, len(r.rdvPending))
	for seq := range r.rdvPending {
		seqs = append(seqs, seq)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	sends := make([]*rdvSend, len(seqs))
	for i, seq := range seqs {
		sends[i] = r.rdvPending[seq]
	}
	return sends
}

// handleWire is the per-peer progress engine's step for one message
// read from a connection (see registerConn): it turns stream markers
// into envelopes and drives the rendezvous protocol.
func (r *Rank) handleWire(obj any) {
	w, ok := obj.(*wireMsg)
	if !ok {
		panic(fmt.Sprintf("mpi: rank %d got non-wire object %T", r.id, obj))
	}
	m := *w
	*w = wireMsg{}
	r.job.wireFree = append(r.job.wireFree, w)
	switch m.kind {
	case kindEager:
		r.deliver(r.newEnvelope(envelope{
			src: m.src, ctx: m.ctx, tag: m.tag,
			size: m.size, data: m.data, arrived: true, sentAt: m.sentAt,
		}))
	case kindRTS:
		r.deliver(r.newEnvelope(envelope{
			src: m.src, ctx: m.ctx, tag: m.tag,
			size: m.size, rdvSeq: m.seq, rdvFrom: m.src,
			ready: r.takeCond(), sentAt: m.sentAt,
		}))
	case kindCTS:
		if s := r.rdvPending[m.seq]; s != nil {
			s.cts = true
			s.cond.Broadcast()
		}
	case kindRdvData:
		r.completeRdv(m)
	}
}

// takeFree pops the most recently freed item off a freelist, or
// returns a new one when the list is empty.
func takeFree[T any](free *[]*T) *T {
	n := len(*free)
	if n == 0 {
		return new(T)
	}
	x := (*free)[n-1]
	(*free)[n-1] = nil
	*free = (*free)[:n-1]
	return x
}

// takeCond returns an idle Cond from the rank's pool, or a new one. A
// blocking Recv, Request.Wait, a rendezvous envelope and a rendezvous
// send take their Cond here and give it back once its waiters have been
// woken for good, so that neither a Cond nor its queue is allocated per
// message.
func (r *Rank) takeCond() *sim.Cond {
	if len(r.conds) == 0 {
		return sim.NewCond(r.job.k)
	}
	return takeFree(&r.conds)
}

// putCond returns an idle Cond, one that holds no waiter, to the pool.
func (r *Rank) putCond(c *sim.Cond) { r.conds = append(r.conds, c) }

// newEnvelope returns e in an envelope from the rank's freelist, or in
// a new one.
func (r *Rank) newEnvelope(e envelope) *envelope {
	env := takeFree(&r.envFree)
	*env = e
	return env
}

// deliver matches an incoming envelope against posted receives or
// queues it as unexpected.
func (r *Rank) deliver(env *envelope) {
	for i, p := range r.posted {
		if p.matches(env) {
			r.posted = append(r.posted[:i], r.posted[i+1:]...)
			p.env = env
			env.matched = true
			r.maybeCTS(env)
			p.wake(r.job.k)
			return
		}
	}
	r.unexpected = append(r.unexpected, env)
}

// maybeCTS sends clear-to-send for a matched rendezvous envelope.
func (r *Rank) maybeCTS(env *envelope) {
	if env.arrived || env.ready == nil {
		return
	}
	// Send CTS from a helper process (we may be in kernel context).
	peer := env.rdvFrom
	seq := env.rdvSeq
	r.job.k.Spawn(r.ctsName, func(ctx *sim.Ctx) {
		conn := r.conns[peer]
		if conn == nil {
			return
		}
		r.job.writeWire(ctx, conn, envelopeSize, wireMsg{kind: kindCTS, src: r.id, seq: seq})
	})
}

// completeRdv attaches arrived rendezvous data to its envelope.
func (r *Rank) completeRdv(m wireMsg) {
	// The envelope is either in unexpected or already matched by a
	// posted recv; find by (src, seq).
	if env := r.findRdv(m.src, m.seq); env != nil {
		env.data = m.data
		env.arrived = true
		if env.ready != nil {
			env.ready.Broadcast()
		}
		return
	}
	// Under failures the envelope may be legitimately gone: a crash
	// fails matched envelopes and the blocked Recv drops them, but
	// in-flight data can still be readable ahead of the connection
	// teardown. Drop the stray; in a healthy job it is a protocol bug.
	if r.crashed || len(r.job.failed) > 0 || r.job.restarts > 0 {
		return
	}
	panic(fmt.Sprintf("mpi: rank %d got rendezvous data with no envelope (src=%d seq=%d)", r.id, m.src, m.seq))
}

func (r *Rank) findRdv(src int, seq uint64) *envelope {
	for _, e := range r.unexpected {
		if e.src == src && e.rdvSeq == seq && e.ready != nil && !e.arrived {
			return e
		}
	}
	// Matched envelopes held by receives waiting for their data. (A
	// posted receive has no envelope: deliver unposts it as it
	// matches.)
	for _, e := range r.matchedRdv {
		if e.src == src && e.rdvSeq == seq && !e.arrived {
			return e
		}
	}
	return nil
}

func (p *postedRecv) matches(env *envelope) bool {
	if env.matched {
		return false
	}
	if p.ctx != env.ctx {
		return false
	}
	if p.src != AnySource && p.src != env.src {
		return false
	}
	if p.tag != AnyTag && p.tag != env.tag {
		return false
	}
	return true
}

// Send transmits n bytes with data attached to (dest, tag) on comm,
// blocking until the message is handed to the transport (standard-mode
// semantics: buffered locally or matched remotely).
func (r *Rank) Send(ctx *sim.Ctx, comm *Comm, dest, tag int, n units.ByteSize, data any) error {
	if n < 0 {
		return fmt.Errorf("mpi: negative message size %d", n)
	}
	gdest, err := comm.globalRank(dest)
	if err != nil {
		return err
	}
	if r.crashed {
		return r.handleErr(&RankFailedError{Rank: r.id})
	}
	if gdest != r.id && r.job.failed[gdest] {
		return r.handleErr(&RankFailedError{Rank: gdest})
	}
	now := r.job.k.Now()
	cm := r.commMetrics(comm.ctxID)
	if gdest == r.id {
		// Self-send: deliver directly.
		cm.sentMsgs.Inc()
		cm.sentBytes.Add(int64(n))
		r.deliver(r.newEnvelope(envelope{src: r.id, ctx: comm.ctxID, tag: tag, size: n, data: data, arrived: true, sentAt: now}))
		return nil
	}
	conn := r.conns[gdest]
	// A restarted job may catch the peer mid-rejoin: it is alive (not
	// failed, not finished) but its connection is still being wired.
	// Block until the mesh change resolves — a registered connection, the
	// peer's failure, or our own crash all broadcast wired.
	for conn == nil && !r.crashed && r.job.restarts > 0 &&
		!r.job.failed[gdest] && !r.deadPeers[gdest] {
		r.wired.Wait(ctx)
		conn = r.conns[gdest]
	}
	if r.crashed {
		return r.handleErr(&RankFailedError{Rank: r.id})
	}
	if conn == nil {
		if r.job.failed[gdest] {
			return r.handleErr(&RankFailedError{Rank: gdest})
		}
		if r.deadPeers[gdest] {
			return r.handleErr(ErrRankFinished)
		}
		return fmt.Errorf("mpi: rank %d has no connection to %d", r.id, gdest)
	}
	cm.sentMsgs.Inc()
	cm.sentBytes.Add(int64(n))
	if n <= r.job.opts.EagerThreshold {
		if err := r.job.writeWire(ctx, conn, envelopeSize+n, wireMsg{
			kind: kindEager, src: r.id, ctx: comm.ctxID, tag: tag, size: n, data: data, sentAt: now,
		}); err != nil {
			return r.handleErr(r.commFail(gdest, err))
		}
		return nil
	}
	// Rendezvous: RTS, wait for CTS, then bulk data.
	r.nextRdvSeq++
	seq := r.nextRdvSeq
	pend := takeFree(&r.sendFree)
	*pend = rdvSend{peer: gdest, cond: r.takeCond()}
	r.rdvPending[seq] = pend
	if err := r.job.writeWire(ctx, conn, envelopeSize, wireMsg{
		kind: kindRTS, src: r.id, ctx: comm.ctxID, tag: tag, size: n, seq: seq, sentAt: now,
	}); err != nil {
		r.putSend(seq, pend)
		return r.handleErr(r.commFail(gdest, err))
	}
	for !pend.cts && pend.err == nil {
		pend.cond.Wait(ctx)
	}
	err = pend.err
	r.putSend(seq, pend)
	if err != nil {
		return r.handleErr(err)
	}
	if err := r.job.writeWire(ctx, conn, envelopeSize+n, wireMsg{
		kind: kindRdvData, src: r.id, size: n, data: data, seq: seq,
	}); err != nil {
		return r.handleErr(r.commFail(gdest, err))
	}
	return nil
}

// writeWire writes n bytes on conn with m as their marker, copied into
// a *wireMsg from the job's freelist. Reuse is safe because a marker is
// read once: the receiver drops any retransmitted copy of a marker it
// has consumed, so the copies the sender keeps for retransmission are
// never read again.
func (j *Job) writeWire(ctx *sim.Ctx, conn *globusio.IO, n units.ByteSize, m wireMsg) error {
	w := takeFree(&j.wireFree)
	*w = m
	return conn.WriteMsg(ctx, n, w)
}

// commFail maps a transport-level write error to the MPI-level cause:
// the local rank crashed mid-call, the peer is in the failed group, or
// (otherwise) the raw transport error.
func (r *Rank) commFail(peer int, err error) error {
	if r.crashed {
		return &RankFailedError{Rank: r.id}
	}
	if r.job.failed[peer] {
		return &RankFailedError{Rank: peer}
	}
	return err
}

// Recv blocks until a message matching (src, tag) on comm arrives and
// returns it. src may be AnySource and tag AnyTag.
func (r *Rank) Recv(ctx *sim.Ctx, comm *Comm, src, tag int) (Message, error) {
	gsrc := src
	if src != AnySource {
		var err error
		gsrc, err = comm.globalRank(src)
		if err != nil {
			return Message{}, err
		}
	}
	env, err := r.tryMatch(comm, gsrc, tag)
	if env == nil && err == nil {
		env, err = r.waitPosted(ctx, postedRecv{src: gsrc, ctx: comm.ctxID, tag: tag})
	}
	if err != nil {
		return Message{}, r.handleErr(err)
	}
	// Rendezvous: data may still be in flight.
	if !env.arrived {
		r.matchedRdv = append(r.matchedRdv, env)
		for !env.arrived && env.err == nil {
			env.ready.Wait(ctx)
		}
		r.dropMatchedRdv(env)
		if env.err != nil {
			return Message{}, r.handleErr(env.err)
		}
	}
	return r.takeMessage(comm, env), nil
}

// waitPosted posts a blocking receive in a record from the rank's
// freelist and waits until deliver matches it or peerDown or
// failAllLocal fails it. Each of those takes the record off the posted
// list before waking the receive, so once awake the receive holds the
// only reference and recycles the record itself.
func (r *Rank) waitPosted(ctx *sim.Ctx, want postedRecv) (*envelope, error) {
	p := takeFree(&r.postFree)
	*p = want
	p.cond = r.takeCond()
	r.posted = append(r.posted, p)
	for p.env == nil && p.err == nil {
		p.cond.Wait(ctx)
	}
	env, err := p.env, p.err
	r.putCond(p.cond)
	*p = postedRecv{}
	r.postFree = append(r.postFree, p)
	return env, err
}

// takeMessage copies a received envelope into a Message, records the
// delivery, and recycles the envelope. Its receive has left every list
// that findRdv and the failure paths search, and a rendezvous
// envelope's ready Cond has woken its one waiter for good.
func (r *Rank) takeMessage(comm *Comm, env *envelope) Message {
	r.observeRecv(comm.ctxID, env)
	msg := Message{
		Src:  comm.localRank(env.src),
		Tag:  env.tag,
		Len:  env.size,
		Data: env.data,
	}
	if env.ready != nil {
		r.putCond(env.ready)
	}
	*env = envelope{}
	r.envFree = append(r.envFree, env)
	return msg
}

// observeRecv records delivery metrics: per-communicator message and
// byte counters, the one-way latency histogram, and an EvMPIRecv
// flight-recorder event.
func (r *Rank) observeRecv(ctxID int, env *envelope) {
	cm := r.commMetrics(ctxID)
	cm.recvMsgs.Inc()
	cm.recvBytes.Add(int64(env.size))
	lat := r.job.k.Now() - env.sentAt
	cm.latency.Observe(lat.Seconds())
	r.job.k.Metrics().Events().Emit(metrics.EvMPIRecv, cm.subject,
		int64(env.size), int64(ctxID), int64(lat))
}

// tryMatch claims the first unexpected envelope that a receive for
// (gsrc, tag) on comm matches, without blocking. It returns the
// envelope, or the error the receive fails with, or neither when the
// receive has to be posted and wait. It fails fast when the awaited
// peer's connection has shut down or the peer is in the failed-process
// group; a wildcard receive fails when any rank in the communicator's
// group has failed (MPI_ANY_SOURCE cannot complete safely — the failed
// rank might have been the intended sender).
func (r *Rank) tryMatch(comm *Comm, gsrc, tag int) (*envelope, error) {
	if r.crashed {
		return nil, &RankFailedError{Rank: r.id}
	}
	p := postedRecv{src: gsrc, ctx: comm.ctxID, tag: tag}
	for i, e := range r.unexpected {
		if p.matches(e) {
			r.unexpected = append(r.unexpected[:i], r.unexpected[i+1:]...)
			e.matched = true
			r.maybeCTS(e)
			return e, nil
		}
	}
	if gsrc != AnySource && gsrc != r.id {
		if r.job.failed[gsrc] {
			return nil, &RankFailedError{Rank: gsrc}
		}
		if r.deadPeers[gsrc] {
			return nil, ErrRankFinished
		}
	}
	if gsrc == AnySource && len(r.job.failed) > 0 {
		for _, g := range comm.group {
			if g != r.id && r.job.failed[g] {
				return nil, &RankFailedError{Rank: g}
			}
		}
	}
	return nil, nil
}

func (r *Rank) dropMatchedRdv(env *envelope) {
	for i, e := range r.matchedRdv {
		if e == env {
			r.matchedRdv = append(r.matchedRdv[:i], r.matchedRdv[i+1:]...)
			return
		}
	}
}

// SendRecv performs a blocking exchange: send to dest then receive
// from src (issued concurrently to avoid deadlock on symmetric
// exchanges).
func (r *Rank) SendRecv(ctx *sim.Ctx, comm *Comm, dest, sendTag int, n units.ByteSize, data any, src, recvTag int) (Message, error) {
	req, err := r.Isend(ctx, comm, dest, sendTag, n, data)
	if err != nil {
		return Message{}, err
	}
	msg, err := r.Recv(ctx, comm, src, recvTag)
	if err != nil {
		return Message{}, err
	}
	if _, err := req.Wait(ctx); err != nil {
		return Message{}, err
	}
	return msg, nil
}
