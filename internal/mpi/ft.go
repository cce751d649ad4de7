// Fault tolerance: rank crash/restart, failed-process groups, error
// handlers, and checkpointing — the MPICH fault-tolerance model
// (MPI_ERRORS_RETURN semantics) applied to this simulation.
//
// The contract, following MPICH's Fault_Tolerance spec:
//
//   - A crashed rank's process dies abruptly: its connections abort,
//     its listener closes, its CPU task is released.
//   - Communication with a failed rank returns a typed error
//     (*RankFailedError, errors.Is-able against ErrRankFailed) instead
//     of hanging: sends fail fast, outstanding receives complete with
//     error, and wildcard (AnySource) receives complete with error as
//     soon as any member of the communicator has failed.
//   - Collectives fail on the ranks whose tree edges touch the failed
//     process; other ranks may complete normally ("some but not
//     necessarily all processes return errors").
//   - CommGroupFailed reports the failed-process group of a
//     communicator, so applications can reason about who is gone.
//   - A crashed rank can be restarted (same host or a fresh one): a
//     new incarnation rejoins the job's connection mesh and re-runs
//     the application main, which recovers its state from the last
//     checkpoint (SaveCheckpoint / LastCheckpoint).
package mpi

import (
	"errors"
	"fmt"
	"sort"

	"mpichgq/internal/faults"
	"mpichgq/internal/globusio"
	"mpichgq/internal/metrics"
	"mpichgq/internal/sim"
	"mpichgq/internal/spans"
)

// ErrRankFailed is the errors.Is target for all rank-failure errors.
var ErrRankFailed = errors.New("mpi: rank failed")

// RankFailedError reports that communication involved a failed rank
// (MPI_ERR_OTHER under MPI_ERRORS_RETURN). Rank is the world rank of
// the failed process — the peer, or the calling rank itself when its
// own process was crashed mid-operation.
type RankFailedError struct{ Rank int }

func (e *RankFailedError) Error() string {
	return fmt.Sprintf("mpi: rank %d failed", e.Rank)
}

// Is makes errors.Is(err, ErrRankFailed) match any rank failure.
func (e *RankFailedError) Is(target error) bool { return target == ErrRankFailed }

// Errhandler selects how communication errors surface
// (MPI_Errhandler_set on the world communicator).
type Errhandler int

const (
	// ErrorsReturn (the default here, unlike the MPI standard) returns
	// typed errors from communication calls so the application can
	// react — the mode the fault-tolerance model requires.
	ErrorsReturn Errhandler = iota
	// ErrorsAreFatal panics the calling process on any rank-failure
	// error, the MPI default for jobs that opt out of fault handling.
	ErrorsAreFatal
)

// SetErrhandler selects the job-wide error handler.
func (j *Job) SetErrhandler(h Errhandler) { j.errhandler = h }

// handleErr applies the job's error handler to a communication error.
func (r *Rank) handleErr(err error) error {
	if err != nil && r.job.errhandler == ErrorsAreFatal && errors.Is(err, ErrRankFailed) {
		panic(fmt.Sprintf("mpi: rank %d: %v (MPI_ERRORS_ARE_FATAL)", r.id, err))
	}
	return err
}

// RankEvent is a rank lifecycle transition delivered to observers.
type RankEvent int

const (
	// RankCrashed: the rank's process died.
	RankCrashed RankEvent = iota
	// RankRestarted: a new incarnation of the rank rejoined the job
	// (its connection mesh is being re-established; messages to it
	// will be delivered once wiring completes).
	RankRestarted
)

// Notify registers an observer for rank lifecycle events. Observers
// run synchronously at the transition (kernel context): keep them
// cheap — set a flag, record a timestamp — and do no blocking calls.
func (j *Job) Notify(fn func(rank int, ev RankEvent)) {
	j.observers = append(j.observers, fn)
}

func (j *Job) notifyRank(rank int, ev RankEvent) {
	for _, fn := range j.observers {
		fn(rank, ev)
	}
}

// Failed reports whether world rank i is currently failed.
func (j *Job) Failed(i int) bool { return j.failed[i] }

// FailedRanks returns the currently failed world ranks, sorted.
func (j *Job) FailedRanks() []int {
	var out []int
	for i := range j.failed {
		out = append(out, i)
	}
	sort.Ints(out)
	return out
}

// CommGroupFailed returns the failed-process group of c as local
// ranks, sorted (MPIX_Comm_group_failed). Empty means every member is
// alive.
func (r *Rank) CommGroupFailed(c *Comm) []int {
	var out []int
	for local, g := range c.group {
		if r.job.failed[g] {
			out = append(out, local)
		}
	}
	return out
}

// Crashed reports whether this rank's current incarnation has been
// crashed. Application mains should treat any communication error as
// a signal to return promptly; Crashed lets compute-only loops notice
// too.
func (r *Rank) Crashed() bool { return r.crashed }

// Epoch returns the rank's incarnation number: 0 for the original
// process, incremented by each restart.
func (r *Rank) Epoch() int { return r.epoch }

// rankTrace is the deterministic trace ID for rank i's lifecycle
// spans.
func (j *Job) rankTrace(i int) spans.TraceID {
	return spans.DeriveTrace(spans.NSRank, uint64(i))
}

// CrashRank fails world rank i immediately: its pending operations
// complete with *RankFailedError, its connections abort (so every
// peer's progress engine observes the failure), and its listener and
// CPU task are released. Safe to call from kernel context (fault
// injection events). Crashing an already-failed or finalized rank is
// a no-op.
func (j *Job) CrashRank(i int) {
	r := j.ranks[i]
	if r.crashed || r.finalized {
		return
	}
	r.crashed = true
	j.failed[i] = true
	j.k.Metrics().Events().Emit(metrics.EvRankCrash, r.task.Name(), int64(i), int64(r.epoch), 0)
	j.k.Tracer().Begin(j.rankTrace(i), 0, "rank.crash", r.task.Name()).
		Int("rank", int64(i)).Int("epoch", int64(r.epoch)).
		EndStatus(spans.StatusFailed)
	// Fail the rank's own outstanding operations so its blocked process
	// wakes, observes the error, and returns.
	r.failAllLocal(&RankFailedError{Rank: i})
	// Abort transport in deterministic (sorted-peer) order.
	for peer := 0; peer < j.Size(); peer++ {
		if conn := r.conns[peer]; conn != nil {
			conn.Close()
			delete(r.conns, peer)
		}
	}
	if r.listener != nil {
		r.listener.Close()
		r.listener = nil
	}
	r.task.Close()
	// The rank counts toward the init barrier even though it will never
	// reach it; its expected connections are gone, so re-check every
	// rank's wiring wait.
	if !r.inited {
		j.initSkips++
		j.maybeGo()
	}
	for _, rr := range j.ranks {
		rr.wired.Broadcast()
	}
	j.notifyRank(i, RankCrashed)
}

// failAllLocal completes every outstanding operation on this rank with
// err: posted receives, rendezvous sends awaiting CTS, and matched or
// unexpected rendezvous envelopes whose data will never arrive.
func (r *Rank) failAllLocal(err error) {
	for _, p := range r.posted {
		p.err = err
		p.wake(r.job.k)
	}
	r.posted = nil
	for _, s := range r.pendingSends() {
		if !s.cts {
			s.err = err
			s.cond.Broadcast()
		}
	}
	failEnv := func(e *envelope) {
		if !e.arrived && e.ready != nil && e.err == nil {
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

// RestartRank brings a crashed rank back as a fresh incarnation on h
// (nil = the rank's previous host, reusing its node, TCP stack, and
// CPU). The new process re-wires connections to every live peer and
// then re-runs the job's main function, which is expected to recover
// from LastCheckpoint. Restarting a live rank is a no-op.
func (j *Job) RestartRank(i int, h *Host) {
	r := j.ranks[i]
	if !r.crashed {
		return
	}
	if h == nil {
		h = r.host
	}
	r.host = h
	j.hosts[i] = h // peers resolve dial addresses through the host table
	r.task = h.CPU.NewTask(fmt.Sprintf("rank-%d", i))
	// Reset the transport and matching engine. Communicator handles,
	// context allocations, and split/pair epoch counters survive: the
	// application recovers its comm handles through the init-state
	// checkpoint instead of re-running collective creation calls.
	r.conns = make(map[int]*globusio.IO)
	r.unexpected, r.posted, r.matchedRdv = nil, nil, nil
	r.rdvPending = make(map[uint64]*rdvSend)
	r.deadPeers = nil
	r.epoch++
	r.crashed = false
	delete(j.failed, i)
	j.restarts++
	j.restarting[i] = true
	// The rank is alive again: peers' directed receives from it should
	// block for the reconnect instead of failing fast.
	for _, rr := range j.ranks {
		if rr != r {
			delete(rr.deadPeers, i)
		}
	}
	epoch := r.epoch
	j.k.Spawn(fmt.Sprintf("mpi-rank-%d-r%d", i, epoch), func(ctx *sim.Ctx) {
		span := j.k.Tracer().Begin(j.rankTrace(i), 0, "rank.restart", r.task.Name())
		span.Int("rank", int64(i)).Int("epoch", int64(epoch))
		r.rejoin(ctx)
		span.End()
		delete(j.restarting, i)
		j.k.Metrics().Events().Emit(metrics.EvRankRestart, r.task.Name(), int64(i), int64(epoch), 0)
		j.notifyRank(i, RankRestarted)
		if !j.started {
			// Crashed before MPI_Init completed: wait for the job to go.
			for !j.started {
				j.goCond.Wait(ctx)
			}
		}
		j.main(ctx, r)
		r.done = true
	})
}

// rejoin re-establishes the restarted rank's connection mesh: listen
// on the rank's well-known port, dial every live peer (keeping the
// lower-dials-higher rule toward peers that are themselves mid-
// restart, so no pair dials twice), and wait until every live peer is
// wired.
func (r *Rank) rejoin(ctx *sim.Ctx) {
	j := r.job
	l, err := r.host.TCP.Listen(j.port(r.id))
	if err != nil {
		panic(fmt.Sprintf("mpi: rank %d relisten: %v", r.id, err))
	}
	r.listener = l
	ctx.SpawnChild(fmt.Sprintf("mpi-accept-%d-r%d", r.id, r.epoch), func(actx *sim.Ctx) {
		r.acceptLoop(actx, l)
	})
	for peer := 0; peer < j.Size(); peer++ {
		if peer == r.id || j.failed[peer] || j.ranks[peer].finalized {
			continue
		}
		if j.restarting[peer] && peer > r.id {
			// The higher restarting peer dials us.
			continue
		}
		if !r.dialPeer(ctx, peer) {
			return // crashed again mid-rejoin
		}
	}
	for !r.crashed && !r.wiredUp() {
		r.wired.Wait(ctx)
	}
}

// Checkpoint is one saved rank state snapshot.
type Checkpoint struct {
	// Step is the application-defined progress marker (0 for the
	// init-state snapshot).
	Step int
	// State is the application payload.
	State any
}

// SaveInitState stores the rank's MPI_Init-time system snapshot:
// state every incarnation needs regardless of checkpointing policy —
// typically the communicator handles created during startup. It is
// always retained; LastCheckpoint falls back to it when no
// application checkpoint exists (the "no checkpointing" restart mode,
// which replays from step 0).
func (r *Rank) SaveInitState(state any) {
	if _, ok := r.job.inits[r.id]; ok {
		return // restarted incarnations keep the original snapshot
	}
	r.job.inits[r.id] = Checkpoint{State: state}
}

// SaveCheckpoint stores a periodic application checkpoint at the
// given progress step, replacing the previous one (only the latest is
// kept — restart recovers from the last checkpoint).
func (r *Rank) SaveCheckpoint(ctx *sim.Ctx, step int, state any) {
	r.job.ckpts[r.id] = Checkpoint{Step: step, State: state}
	r.job.k.Metrics().Events().Emit(metrics.EvRankCkpt, r.task.Name(), int64(r.id), int64(step), 0)
}

// LastCheckpoint returns the rank's most recent snapshot: the latest
// SaveCheckpoint if any, else the SaveInitState snapshot, else
// ok=false (first incarnation, nothing saved yet).
func (r *Rank) LastCheckpoint() (Checkpoint, bool) {
	if c, ok := r.job.ckpts[r.id]; ok {
		return c, true
	}
	c, ok := r.job.inits[r.id]
	return c, ok
}

// RankTarget implements faults.RankResolver, so an mpi.Job can be
// handed to faults.Scenario.Apply directly: scenario rank
// names are task names ("rank-3").
func (j *Job) RankTarget(name string) faults.RankTarget {
	for i := range j.ranks {
		if fmt.Sprintf("rank-%d", i) == name {
			return rankTarget{j: j, i: i}
		}
	}
	return nil
}

// rankTarget adapts one rank to the faults.RankTarget interface.
type rankTarget struct {
	j *Job
	i int
}

// RankCrash implements faults.RankTarget.
func (t rankTarget) RankCrash() { t.j.CrashRank(t.i) }

// RankRestart implements faults.RankTarget: the rank restarts on its
// previous host.
func (t rankTarget) RankRestart() { t.j.RestartRank(t.i, nil) }
