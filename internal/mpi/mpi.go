// Package mpi implements the subset of the Message Passing Interface
// that MPICH-GQ builds on: ranks, intracommunicators and two-party
// intercommunicators with isolated contexts, blocking and nonblocking
// point-to-point operations with eager and rendezvous protocols,
// binomial-tree collectives, and — centrally for this paper — the MPI
// attribute mechanism (keyvals, AttrPut/AttrGet) through which
// applications specify QoS without leaving the MPI standard.
//
// Transport is TCP (tcpsim) through the globus-io wrapper, mirroring
// MPICH-G2's TCP device: one connection per rank pair, established at
// startup, with messages framed as stream markers.
package mpi

import (
	"fmt"
	"time"

	"mpichgq/internal/dsrt"
	"mpichgq/internal/globusio"
	"mpichgq/internal/metrics"
	"mpichgq/internal/netsim"
	"mpichgq/internal/sim"
	"mpichgq/internal/tcpsim"
	"mpichgq/internal/units"
)

// Host binds a rank to its execution resources: a network node with a
// TCP stack and a CPU.
type Host struct {
	Node *netsim.Node
	TCP  *tcpsim.Stack
	CPU  *dsrt.CPU
}

// NewHost builds a Host on node nd, creating the TCP stack and CPU.
func NewHost(nd *netsim.Node, tcpOpts tcpsim.Options) *Host {
	return &Host{
		Node: nd,
		TCP:  tcpsim.NewStack(nd, tcpOpts),
		CPU:  dsrt.NewCPU(nd.Network().Kernel(), nd.Name()),
	}
}

// basePort: rank i listens on basePort+i.
const basePort netsim.Port = 5000

// JobOptions tune an MPI job.
type JobOptions struct {
	// EagerThreshold: messages at or below go eager; above use
	// rendezvous. Default 128 KB (MPICH TCP device era default).
	EagerThreshold units.ByteSize
	// CopyCostPerKB charges each rank's CPU for socket copies (0 =
	// free I/O).
	CopyCostPerKB time.Duration
	// SockBuf overrides both socket buffer sizes on MPI connections
	// when non-zero (the §5.5 tuning knob).
	SockBuf units.ByteSize
	// Shaper enables end-system traffic shaping on all MPI
	// connections (the §5.4 extension).
	Shaper *globusio.ShaperConfig
}

func (o JobOptions) withDefaults() JobOptions {
	if o.EagerThreshold == 0 {
		o.EagerThreshold = 128 * units.KB
	}
	return o
}

// envelopeSize is the wire overhead of one message header.
const envelopeSize = 64 * units.Byte

// Job is one MPI application: size ranks bound to hosts.
type Job struct {
	k     *sim.Kernel
	hosts []*Host
	ranks []*Rank
	opts  JobOptions

	world    *Comm
	nextCtx  int
	ctxAlloc map[string]int // deterministic collective ctx allocation

	// main is the application entry point, retained so restarted rank
	// incarnations can re-run it.
	main func(ctx *sim.Ctx, r *Rank)

	ready int
	// initSkips counts ranks that crashed before completing MPI_Init;
	// they count toward the init barrier so the survivors still start.
	initSkips int
	started   bool
	goCond    *sim.Cond

	// Fault-tolerance state (see ft.go).
	failed     map[int]bool // currently failed world ranks
	restarting map[int]bool // ranks mid-rejoin
	restarts   int          // total restarts (0 = mesh never changed)
	observers  []func(rank int, ev RankEvent)
	errhandler Errhandler
	ckpts      map[int]Checkpoint // latest application checkpoint per rank
	inits      map[int]Checkpoint // MPI_Init-time system snapshot per rank

	keyvals map[Keyval]*keyvalInfo
	nextKV  Keyval

	// wireFree recycles the markers of MPI messages (see writeWire).
	wireFree []*wireMsg
}

// NewJob creates a job with one rank per host entry (a host may appear
// multiple times to co-locate ranks).
func NewJob(k *sim.Kernel, hosts []*Host, opts JobOptions) *Job {
	if len(hosts) < 1 {
		panic("mpi: job needs at least one rank")
	}
	j := &Job{
		k:          k,
		hosts:      hosts,
		opts:       opts.withDefaults(),
		nextCtx:    2, // 0/1 belong to the world communicator
		ctxAlloc:   make(map[string]int),
		goCond:     sim.NewCond(k),
		failed:     make(map[int]bool),
		restarting: make(map[int]bool),
		ckpts:      make(map[int]Checkpoint),
		inits:      make(map[int]Checkpoint),
		keyvals:    make(map[Keyval]*keyvalInfo),
	}
	group := make([]int, len(hosts))
	for i := range group {
		group[i] = i
	}
	j.world = &Comm{job: j, ctxID: 0, group: group}
	for i, h := range hosts {
		j.ranks = append(j.ranks, newRank(j, i, h))
	}
	return j
}

// Size returns the number of ranks.
func (j *Job) Size() int { return len(j.ranks) }

// Rank returns rank i's handle (valid after NewJob, usable after
// Start).
func (j *Job) Rank(i int) *Rank { return j.ranks[i] }

// Start launches every rank: connections are established all-to-all,
// then main runs on each rank's process. Call once. The main function
// is retained: restarted rank incarnations re-run it, recovering
// their state from LastCheckpoint.
func (j *Job) Start(main func(ctx *sim.Ctx, r *Rank)) {
	j.main = main
	for _, r := range j.ranks {
		r := r
		j.k.Spawn(fmt.Sprintf("mpi-rank-%d", r.id), func(ctx *sim.Ctx) {
			if !r.setup(ctx) {
				// Crashed during wiring; a restart re-enters through
				// RestartRank's own process.
				r.done = true
				return
			}
			// Wait for every rank to finish wiring (MPI_Init). Ranks
			// that crashed mid-wiring count via initSkips so the
			// survivors are not stuck at the barrier.
			r.inited = true
			j.ready++
			j.maybeGo()
			for !j.started {
				j.goCond.Wait(ctx)
			}
			main(ctx, r)
			r.done = true
		})
	}
}

// maybeGo releases the init barrier once every rank has either wired
// up or crashed trying.
func (j *Job) maybeGo() {
	if !j.started && j.ready+j.initSkips >= len(j.ranks) {
		j.started = true
		j.goCond.Broadcast()
	}
}

// Done reports whether every rank's main has returned.
func (j *Job) Done() bool {
	for _, r := range j.ranks {
		if !r.done {
			return false
		}
	}
	return true
}

// allocCtx deterministically assigns a pair of context ids for a
// collective communicator-creation call: every participant passes the
// same key and receives the same ids.
func (j *Job) allocCtx(key string) int {
	if id, ok := j.ctxAlloc[key]; ok {
		return id
	}
	id := j.nextCtx
	j.nextCtx += 2
	j.ctxAlloc[key] = id
	return id
}

// Rank is one MPI process.
type Rank struct {
	job  *Job
	id   int
	host *Host
	task *dsrt.Task
	done bool

	// Fault-tolerance state (see ft.go). epoch counts incarnations;
	// crashed marks the current incarnation dead; inited records that
	// MPI_Init completed; wired signals connection-mesh changes.
	crashed bool
	epoch   int
	inited  bool
	wired   *sim.Cond

	listener  *tcpsim.Listener
	conns     map[int]*globusio.IO
	finalized bool

	// Matching engine. envFree recycles envelopes, postFree the posted
	// records of blocking receives, sendFree the rendezvous sends
	// awaiting CTS, reqFree the requests Wait has freed, and conds the
	// Conds of the first three and of Request.Wait.
	unexpected []*envelope
	envFree    []*envelope
	postFree   []*postedRecv
	sendFree   []*rdvSend
	reqFree    []*Request
	conds      []*sim.Cond
	posted     []*postedRecv
	matchedRdv []*envelope // matched rendezvous envelopes awaiting data
	rdvPending map[uint64]*rdvSend
	nextRdvSeq uint64

	splitEpoch map[int]int // per-source-comm CommSplit call counter
	pairEpoch  map[[3]int]int
	worldComm  *Comm
	deadPeers  map[int]bool

	// cm caches per-communicator metric handles, keyed by context id.
	cm map[int]*commMetrics

	// isendName and ctsName name the Isend and clear-to-send helper
	// processes, formatted once per rank rather than per message.
	isendName, ctsName string
}

// commMetrics bundles the handles for one (rank, communicator) pair.
// Resolved lazily on first traffic; the underlying series are shared
// through the registry, so an experiment can read them back with
// Registry.CounterValue using the same name and labels.
type commMetrics struct {
	subject   string // interned "rank-N" event subject
	sentMsgs  *metrics.Counter
	sentBytes *metrics.Counter
	recvMsgs  *metrics.Counter
	recvBytes *metrics.Counter
	latency   *metrics.Histogram
}

// commMetrics returns (creating on first use) the handles for ctxID.
func (r *Rank) commMetrics(ctxID int) *commMetrics {
	if m := r.cm[ctxID]; m != nil {
		return m
	}
	reg := r.job.k.Metrics()
	rank := fmt.Sprintf("%d", r.id)
	comm := fmt.Sprintf("%d", ctxID)
	m := &commMetrics{
		subject: r.task.Name(),
		sentMsgs: reg.Counter("mpi_sent_messages_total",
			"point-to-point messages sent", "rank", rank, "comm", comm),
		sentBytes: reg.Counter("mpi_sent_bytes_total",
			"point-to-point payload bytes sent", "rank", rank, "comm", comm),
		recvMsgs: reg.Counter("mpi_recv_messages_total",
			"point-to-point messages received", "rank", rank, "comm", comm),
		recvBytes: reg.Counter("mpi_recv_bytes_total",
			"point-to-point payload bytes received", "rank", rank, "comm", comm),
		latency: reg.Histogram("mpi_message_latency_seconds",
			"send-to-receive one-way message latency",
			metrics.DefLatencyBuckets, "rank", rank, "comm", comm),
	}
	if r.cm == nil {
		r.cm = make(map[int]*commMetrics)
	}
	r.cm[ctxID] = m
	return m
}

// RecvBytesCounter exposes the rank's received-payload-bytes counter
// on comm, letting harnesses (e.g. the Figure 5 throughput sweep)
// measure goodput straight from the metrics layer.
func (r *Rank) RecvBytesCounter(comm *Comm) *metrics.Counter {
	return r.commMetrics(comm.ctxID).recvBytes
}

func newRank(j *Job, id int, h *Host) *Rank {
	return &Rank{
		job:        j,
		id:         id,
		host:       h,
		task:       h.CPU.NewTask(fmt.Sprintf("rank-%d", id)),
		wired:      sim.NewCond(j.k),
		conns:      make(map[int]*globusio.IO),
		rdvPending: make(map[uint64]*rdvSend),
		splitEpoch: make(map[int]int),
		pairEpoch:  make(map[[3]int]int),
		isendName:  fmt.Sprintf("mpi-isend-%d", id),
		ctsName:    fmt.Sprintf("mpi-cts-%d", id),
	}
}

// ID returns the rank's world rank.
func (r *Rank) ID() int { return r.id }

// Host returns the rank's execution host.
func (r *Rank) Host() *Host { return r.host }

// Task returns the rank's DSRT CPU task, for application-level compute
// and for CPU reservations.
func (r *Rank) Task() *dsrt.Task { return r.task }

// World returns this rank's view of the world communicator. Each rank
// has its own handle (attributes are process-local in MPI), all
// sharing context 0 and the full group.
func (r *Rank) World() *Comm {
	if r.worldComm == nil {
		r.worldComm = &Comm{job: r.job, ctxID: 0, group: r.job.world.group}
	}
	return r.worldComm
}

// Compute burns CPU time on the rank's task (application "work").
func (r *Rank) Compute(ctx *sim.Ctx, work time.Duration) {
	r.task.Compute(ctx, work)
}

// port returns the listen port of rank i.
func (j *Job) port(i int) netsim.Port {
	return basePort + netsim.Port(i)
}

// ioConfig builds the globus-io wrapper configuration for this rank.
func (r *Rank) ioConfig() globusio.Config {
	return globusio.Config{
		Task:          r.task,
		CopyCostPerKB: r.job.opts.CopyCostPerKB,
		Shaper:        r.job.opts.Shaper,
	}
}

// hello is the first message on every MPI connection, identifying the
// dialing rank.
type hello struct{ from int }

// setup wires this rank to all others: dial every lower rank, accept
// from every higher rank. The accept loop persists for the rank's
// lifetime so restarted peers can reconnect. Returns false if this
// rank was crashed while wiring.
func (r *Rank) setup(ctx *sim.Ctx) bool {
	l, err := r.host.TCP.Listen(r.job.port(r.id))
	if err != nil {
		panic(fmt.Sprintf("mpi: rank %d listen: %v", r.id, err))
	}
	r.listener = l
	ctx.SpawnChild(fmt.Sprintf("mpi-accept-%d", r.id), func(actx *sim.Ctx) {
		r.acceptLoop(actx, l)
	})
	for peer := 0; peer < r.id; peer++ {
		if r.job.failed[peer] {
			continue // crashed before we could dial; nothing to wire
		}
		if !r.dialPeer(ctx, peer) {
			return false
		}
	}
	for !r.crashed && !r.wiredUp() {
		r.wired.Wait(ctx)
	}
	return !r.crashed
}

// acceptLoop accepts peer connections for the life of the listener
// (until Finalize or a crash closes it): the initial higher-rank
// dials, and reconnects from restarted peers.
func (r *Rank) acceptLoop(actx *sim.Ctx, l *tcpsim.Listener) {
	for {
		c, err := l.Accept(actx)
		if err != nil {
			return // listener closed
		}
		io := globusio.Wrap(r.job.k, c, r.ioConfig())
		r.applySockBuf(io)
		_, obj, err := io.ReadMsg(actx)
		if err != nil {
			// Dialer died between connect and hello.
			io.Close()
			continue
		}
		peer := obj.(hello).from
		r.registerConn(peer, io)
	}
}

// dialPeer connects to peer and sends the hello. Returns false only
// if this rank crashed mid-dial; a peer that crashed under the dial
// is skipped (its failure surfaces through the failed set instead).
func (r *Rank) dialPeer(ctx *sim.Ctx, peer int) bool {
	c, err := r.host.TCP.Dial(ctx, r.job.hosts[peer].Node.Addr(), r.job.port(peer))
	if err != nil {
		if r.crashed {
			return false
		}
		if r.job.failed[peer] {
			return true
		}
		panic(fmt.Sprintf("mpi: rank %d dial %d: %v", r.id, peer, err))
	}
	io := globusio.Wrap(r.job.k, c, r.ioConfig())
	r.applySockBuf(io)
	if err := io.WriteMsg(ctx, int64ToSize(int64(envelopeSize)), hello{from: r.id}); err != nil {
		if r.crashed {
			return false
		}
		if r.job.failed[peer] {
			io.Close()
			return true
		}
		panic(fmt.Sprintf("mpi: rank %d hello to %d: %v", r.id, peer, err))
	}
	r.registerConn(peer, io)
	return true
}

// wiredUp reports whether this rank holds a connection to every
// currently-live peer.
func (r *Rank) wiredUp() bool {
	for p := 0; p < r.job.Size(); p++ {
		if p == r.id || r.job.failed[p] {
			continue
		}
		if r.conns[p] == nil {
			return false
		}
	}
	return true
}

func int64ToSize(n int64) units.ByteSize { return units.ByteSize(n) }

func (r *Rank) applySockBuf(io *globusio.IO) {
	if b := r.job.opts.SockBuf; b > 0 {
		io.SetSockBufs(b, b)
	}
}

// registerConn records the connection and starts its reader, the
// progress engine for that peer: a globusio.IO.Serve callback that
// hands each message to handleWire and, when the connection shuts
// down (clean or not), fails pending receives from that peer through
// peerDown rather than leaving them hanging. A rank has exactly one
// live incarnation, so in a job that has seen restarts the newest
// connection for a peer wins; in a restart-free job a duplicate is
// still the wiring bug it always was.
func (r *Rank) registerConn(peer int, io *globusio.IO) {
	if old := r.conns[peer]; old != nil {
		if r.job.restarts == 0 {
			panic(fmt.Sprintf("mpi: rank %d has duplicate connection to %d", r.id, peer))
		}
		old.Close() // stale connection from the peer's previous incarnation
	}
	delete(r.deadPeers, peer)
	r.conns[peer] = io
	r.wired.Broadcast()
	io.Serve(func(_ units.ByteSize, obj any, err error) {
		if err != nil {
			r.peerDown(peer, io)
			return
		}
		r.handleWire(obj)
	})
}

// Conn returns the wrapped connection to a peer world rank (nil for
// self). Exposed so the QoS layer can bind flows to reservations.
func (r *Rank) Conn(peer int) *globusio.IO { return r.conns[peer] }

// Finalize performs a clean shutdown (MPI_Finalize): a world barrier,
// then every connection is drained and closed and the listener shut
// down. Communication after Finalize fails.
func (r *Rank) Finalize(ctx *sim.Ctx) error {
	if r.finalized {
		return fmt.Errorf("mpi: rank %d already finalized", r.id)
	}
	if err := r.Barrier(ctx, r.World()); err != nil {
		return err
	}
	r.finalized = true
	// Tear down in peer order, not map order: Drain blocks, so the
	// order is observable. A peer whose reader saw its FIN while we
	// drained another is already gone.
	for peer := 0; peer < r.job.Size(); peer++ {
		conn := r.conns[peer]
		if conn == nil {
			continue
		}
		// Drain may fail if the peer closed first; proceed to Close
		// regardless — teardown is best effort past the barrier.
		_ = conn.Drain(ctx)
		conn.Close()
		delete(r.conns, peer)
	}
	if r.listener != nil {
		r.listener.Close()
		r.listener = nil
	}
	r.task.Close()
	return nil
}
