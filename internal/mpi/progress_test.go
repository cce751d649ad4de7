package mpi

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"mpichgq/internal/sim"
	"mpichgq/internal/units"
)

// exchange is one generated message: src sends to dst at sendAt, and
// dst posts the receive at postAt, by source or as AnySource.
type exchange struct {
	src, dst, tag  int
	size           units.ByteSize
	sendAt, postAt time.Duration
	wildcard       bool
}

// exchangeProgram is a generated job: ranks, messages and an optional
// crash.
type exchangeProgram struct {
	ranks   int
	msgs    []exchange
	crash   int // rank to crash, -1 for none
	crashAt time.Duration
}

// exchangeSizes straddle the 8 KB eager threshold the program runs
// with, so both protocols are drawn.
var exchangeSizes = [...]units.ByteSize{64, units.KB, 6 * units.KB, 12 * units.KB, 40 * units.KB}

func genExchanges(seed int64) exchangeProgram {
	r := sim.NewRNG(seed)
	prog := exchangeProgram{ranks: 2 + r.Intn(3), crash: -1}
	ms := func(n int) time.Duration { return time.Duration(r.Intn(n)) * time.Millisecond }
	for i, n := 0, 1+r.Intn(14); i < n; i++ {
		src := r.Intn(prog.ranks)
		dst := (src + 1 + r.Intn(prog.ranks-1)) % prog.ranks
		prog.msgs = append(prog.msgs, exchange{
			src: src, dst: dst, tag: i,
			size:   exchangeSizes[r.Intn(len(exchangeSizes))],
			sendAt: ms(20), postAt: ms(20),
			wildcard: r.Intn(4) == 0,
		})
	}
	if r.Intn(3) == 0 {
		prog.crash, prog.crashAt = r.Intn(prog.ranks), ms(25)
	}
	return prog
}

// helperRecv is a nonblocking receive built as a helper process that
// calls Recv: the reference that Irecv's callbacks must match event
// for event.
type helperRecv struct {
	done bool
	msg  Message
	err  error
	cond *sim.Cond
}

func spawnHelperRecv(r *Rank, comm *Comm, src, tag int) *helperRecv {
	k := r.job.k
	h := &helperRecv{cond: sim.NewCond(k)}
	k.Spawn("test-irecv", func(ctx *sim.Ctx) {
		h.msg, h.err = r.Recv(ctx, comm, src, tag)
		h.done = true
		h.cond.Broadcast()
	})
	return h
}

func (h *helperRecv) wait(ctx *sim.Ctx) (Message, error) {
	for !h.done {
		h.cond.Wait(ctx)
	}
	return h.msg, h.err
}

// runExchanges runs prog with its receives posted through Irecv or
// through helper processes and returns a digest of the run: every
// receive's outcome, the events executed, the final clock and every
// flight-recorder event.
func runExchanges(t *testing.T, prog exchangeProgram, helpers bool) string {
	t.Helper()
	k, j := testJob(prog.ranks, JobOptions{EagerThreshold: 8 * units.KB})
	defer k.Close()
	var out strings.Builder
	j.Start(func(ctx *sim.Ctx, r *Rank) {
		w := r.World()
		type posted struct {
			m exchange
			q *Request
			h *helperRecv
		}
		var sends []*Request
		var recvs []posted
		// Walk this rank's sends and posts in time order.
		var acts []exchange
		for _, m := range prog.msgs {
			if m.src == r.ID() || m.dst == r.ID() {
				acts = append(acts, m)
			}
		}
		at := func(m exchange) time.Duration {
			if m.src == r.ID() {
				return m.sendAt
			}
			return m.postAt
		}
		for len(acts) > 0 {
			next := 0
			for i, m := range acts {
				if at(m) < at(acts[next]) {
					next = i
				}
			}
			m := acts[next]
			acts = append(acts[:next], acts[next+1:]...)
			if d := at(m) - ctx.Now(); d > 0 {
				ctx.Sleep(d)
			}
			if m.src == r.ID() {
				q, err := r.Isend(ctx, w, m.dst, m.tag, m.size, m.tag)
				if err != nil {
					t.Errorf("isend: %v", err)
					return
				}
				sends = append(sends, q)
				continue
			}
			src := m.src
			if m.wildcard {
				src = AnySource
			}
			p := posted{m: m}
			if helpers {
				p.h = spawnHelperRecv(r, w, src, m.tag)
			} else {
				q, err := r.Irecv(ctx, w, src, m.tag)
				if err != nil {
					t.Errorf("irecv: %v", err)
					return
				}
				p.q = q
			}
			recvs = append(recvs, p)
		}
		for _, p := range recvs {
			var msg Message
			var err error
			if p.h != nil {
				msg, err = p.h.wait(ctx)
			} else {
				msg, err = p.q.Wait(ctx)
			}
			fmt.Fprintf(&out, "%d rank %d tag %d: ", ctx.Now(), r.ID(), p.m.tag)
			if err != nil {
				fmt.Fprintf(&out, "error %v\n", err)
				continue
			}
			fmt.Fprintf(&out, "src %d len %d data %v\n", msg.Src, msg.Len, msg.Data)
		}
		for _, q := range sends {
			if _, err := q.Wait(ctx); err != nil {
				fmt.Fprintf(&out, "%d rank %d send error %v\n", ctx.Now(), r.ID(), err)
			}
		}
	})
	if prog.crash >= 0 {
		k.At(prog.crashAt, sim.PrioNormal, func() { j.CrashRank(prog.crash) })
	}
	if err := k.RunUntil(time.Minute); err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	fmt.Fprintf(h, "%s", out.String())
	fmt.Fprintf(h, "done %v events %d now %d\n", j.Done(), k.EventsRun(), k.Now())
	for _, e := range k.Metrics().Events().Snapshot() {
		fmt.Fprintf(h, "%d %d %s %s %d %d %d\n", e.Seq, e.At, e.Type, e.Subject, e.V1, e.V2, e.V3)
	}
	return fmt.Sprintf("%s events=%d", hex.EncodeToString(h.Sum(nil))[:16], k.EventsRun())
}

// TestIrecvDifferential runs generated exchanges (eager and rendezvous
// sizes, receives posted before and after their messages arrive,
// AnySource receives, and now and then a rank crash) twice: once with
// Irecv and Wait, and once with a helper process per receive that
// calls Recv. The progress engine's callbacks must run the same events
// in the same order as the helper processes did.
func TestIrecvDifferential(t *testing.T) {
	crashes, wildcards, rdv := 0, 0, 0
	for seed := int64(1); seed <= 200; seed++ {
		prog := genExchanges(seed)
		want := runExchanges(t, prog, true)
		got := runExchanges(t, prog, false)
		if got != want {
			t.Fatalf("seed %d (%+v): Irecv digest %s, helper processes %s", seed, prog, got, want)
		}
		if prog.crash >= 0 {
			crashes++
		}
		for _, m := range prog.msgs {
			if m.wildcard {
				wildcards++
			}
			if m.size > 8*units.KB {
				rdv++
			}
		}
	}
	if crashes == 0 || wildcards == 0 || rdv == 0 {
		t.Fatalf("generator drew %d crashes, %d wildcard and %d rendezvous receives", crashes, wildcards, rdv)
	}
}

// TestIrecvErrorsAtWait: a nonblocking receive from a rank that
// crashes fails when it is waited on, under either error handler, and
// not before. Under ErrorsReturn, Wait returns the typed error; under
// ErrorsAreFatal, Wait panics the waiting rank, which Kernel.Run
// reports. A failed request that is never waited on raises nothing.
func TestIrecvErrorsAtWait(t *testing.T) {
	for _, tc := range []struct {
		handler Errhandler
		wait    bool
	}{{ErrorsReturn, true}, {ErrorsAreFatal, true}, {ErrorsAreFatal, false}, {ErrorsReturn, false}} {
		t.Run(fmt.Sprintf("fatal=%v/wait=%v", tc.handler == ErrorsAreFatal, tc.wait), func(t *testing.T) {
			k, _, _, j := testJobNet(3, JobOptions{})
			defer k.Close()
			j.SetErrhandler(tc.handler)
			var waitErr error
			var waitedAt time.Duration
			j.Start(func(ctx *sim.Ctx, r *Rank) {
				if r.ID() != 1 {
					ctx.Sleep(5 * time.Second)
					return
				}
				q, err := r.Irecv(ctx, r.World(), 2, 0)
				if err != nil {
					t.Error(err)
					return
				}
				ctx.Sleep(2 * time.Second) // rank 2 crashes meanwhile
				if !q.done {
					t.Error("receive from the crashed rank still pending")
				}
				if tc.wait {
					waitedAt = ctx.Now()
					_, waitErr = q.Wait(ctx)
				}
			})
			k.At(time.Second, sim.PrioNormal, func() { j.CrashRank(2) })
			err := k.RunUntil(10 * time.Second)
			if tc.handler == ErrorsAreFatal && tc.wait {
				if err == nil || !strings.Contains(err.Error(), "MPI_ERRORS_ARE_FATAL") || !strings.Contains(err.Error(), "mpi-rank-1") {
					t.Fatalf("Run = %v, want rank 1's MPI_ERRORS_ARE_FATAL panic", err)
				}
				if waitedAt < 2*time.Second {
					t.Fatalf("waited at %v, want after 2s", waitedAt)
				}
				return
			}
			if err != nil {
				t.Fatalf("Run = %v", err)
			}
			if !tc.wait {
				return
			}
			var rf *RankFailedError
			if !errors.As(waitErr, &rf) || rf.Rank != 2 {
				t.Fatalf("Wait = %v, want *RankFailedError{Rank: 2}", waitErr)
			}
		})
	}
}

// TestCloseWithPostedIrecvs closes a job whose ranks are blocked in
// Wait on receives nobody sends, with every connection's reader idle:
// no process is left, and the goroutine count is back where it was.
func TestCloseWithPostedIrecvs(t *testing.T) {
	job := func() {
		k, j := testJob(4, JobOptions{})
		j.Start(func(ctx *sim.Ctx, r *Rank) {
			reqs := make([]*Request, 0, 3)
			for tag := 0; tag < 3; tag++ {
				q, err := r.Irecv(ctx, r.World(), AnySource, tag)
				if err != nil {
					t.Error(err)
					return
				}
				reqs = append(reqs, q)
			}
			_ = WaitAll(ctx, reqs...)
			t.Error("WaitAll returned for receives nobody sends")
		})
		if err := k.RunUntil(time.Second); err != nil {
			t.Fatal(err)
		}
		if got := len(k.BlockedProcs()); got == 0 {
			t.Fatal("no process blocked before Close")
		}
		k.Close()
		if k.LiveProcs() != 0 || k.PendingEvents() != 0 {
			t.Fatalf("after Close: live %d, pending %d", k.LiveProcs(), k.PendingEvents())
		}
	}
	// The first job fills the shared pool of idle coroutines.
	job()
	base := runtime.NumGoroutine()
	for i := 0; i < 3; i++ {
		job()
	}
	n := runtime.NumGoroutine()
	for i := 0; i < 100 && n > base; i++ {
		time.Sleep(time.Millisecond)
		n = runtime.NumGoroutine()
	}
	if n > base {
		t.Fatalf("%d goroutines after Close, %d before", n, base)
	}
}
