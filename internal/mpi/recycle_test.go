package mpi

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"mpichgq/internal/sim"
	"mpichgq/internal/units"
)

// TestBlockingRecvAllocatesNothing: once its freelists and pools are
// warm, a blocking ping-pong round trip allocates nothing at eager
// sizes. Above the eager threshold each message's clear-to-send goes
// out from a helper process, and spawning it allocates the Proc and
// the closure it runs; nothing else in the round trip allocates.
func TestBlockingRecvAllocatesNothing(t *testing.T) {
	for _, c := range []struct {
		size units.ByteSize
		want float64
	}{
		{64, 0},
		{2 * units.KB, 0},
		{rdvSize, 2 * 2}, // two messages, each one helper Proc and its closure
	} {
		k, round := startPingPong(t, c.size)
		var err error
		run := func() {
			if e := round(); e != nil && err == nil {
				err = e
			}
		}
		for i := 0; i < 10; i++ {
			run()
		}
		got := testing.AllocsPerRun(100, run)
		k.Close()
		if err != nil {
			t.Fatalf("size %d: %v", c.size, err)
		}
		if got != c.want {
			t.Errorf("size %d: %v allocations per round trip, want %v", c.size, got, c.want)
		}
	}
}

// crashRecvDigest runs three ranks. Rank 0 blocks receiving from rank
// 2, which crashes at 1 s, so rank 0's progress engine fails the
// receive (peerDown). Rank 1 blocks receiving from rank 0 and crashes
// itself at 2 s, which fails its receive from the crashing rank's
// cleanup (failAllLocal). Rank 1 restarts at 2.5 s and receives again
// from rank 0, which sends it a message on another tag at 3 s and the
// awaited one at 3.1 s. It checks that each failed receive returned
// its typed error and gave its posted record back to the rank's
// freelist once, and that the restarted receive reused that record and
// woke only for its own message. The digest records every receive's
// outcome and time, the events run and the flight recorder.
func crashRecvDigest(t *testing.T) string {
	t.Helper()
	k, _, _, j := testJobNet(3, JobOptions{})
	defer k.Close()
	h := sha256.New()
	const sendAt = 3 * time.Second
	wantFailed := func(err error, rank int) {
		var rf *RankFailedError
		if !errors.As(err, &rf) || rf.Rank != rank {
			t.Errorf("receive failed with %v, want rank %d's failure", err, rank)
		}
	}
	j.Start(func(ctx *sim.Ctx, r *Rank) {
		w := r.World()
		switch {
		case r.ID() == 0:
			_, err := r.Recv(ctx, w, 2, 0)
			wantFailed(err, 2)
			fmt.Fprintf(h, "%d rank 0: %v\n", ctx.Now(), err)
			ctx.Sleep(sendAt - ctx.Now())
			if err := r.Send(ctx, w, 1, 8, units.KB, "other"); err != nil {
				t.Error(err)
			}
			ctx.Sleep(100 * time.Millisecond)
			if err := r.Send(ctx, w, 1, 9, units.KB, "mine"); err != nil {
				t.Error(err)
			}
		case r.ID() == 1:
			m, err := r.Recv(ctx, w, 0, 9)
			fmt.Fprintf(h, "%d rank 1 epoch %d: %+v %v\n", ctx.Now(), r.Epoch(), m, err)
			if r.Epoch() == 0 {
				wantFailed(err, 1)
				return
			}
			if err != nil || m.Data != "mine" || ctx.Now() < sendAt+100*time.Millisecond {
				t.Errorf("restarted receive got %+v, %v at %v, want \"mine\" after %v",
					m, err, ctx.Now(), sendAt+100*time.Millisecond)
			}
		default:
			ctx.Sleep(5 * time.Second)
		}
	})
	var rec *postedRecv
	k.At(time.Second, sim.PrioNormal, func() { j.CrashRank(2) })
	k.At(2*time.Second, sim.PrioNormal, func() { j.CrashRank(1) })
	k.At(2500*time.Millisecond, sim.PrioNormal, func() {
		r0, r1 := j.ranks[0], j.ranks[1]
		if len(r0.postFree) != 1 || len(r1.postFree) != 1 {
			t.Errorf("freelists after the failures hold %d and %d records, want 1 each",
				len(r0.postFree), len(r1.postFree))
			return
		}
		rec = r1.postFree[0]
		j.RestartRank(1, nil)
	})
	if err := k.RunUntil(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if !j.Done() {
		t.Error("job did not finish")
	}
	if free := j.ranks[1].postFree; len(free) != 1 || free[0] != rec {
		t.Errorf("rank 1's freelist holds %d records after the restarted receive, want its one record back", len(free))
	}
	fmt.Fprintf(h, "events %d\n", k.EventsRun())
	for _, e := range k.Metrics().Events().Snapshot() {
		fmt.Fprintf(h, "%d %d %s %s %d %d %d\n", e.Seq, e.At, e.Type, e.Subject, e.V1, e.V2, e.V3)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestCrashRecyclesPostedRecvOnce: blocked receives failed by a peer's
// crash and by their own rank's crash return their records once, the
// restarted rank's receive wakes only for its own message, and thirty
// repeats give one digest.
func TestCrashRecyclesPostedRecvOnce(t *testing.T) {
	want := crashRecvDigest(t)
	for i := 1; i < 30; i++ {
		if got := crashRecvDigest(t); got != want {
			t.Fatalf("repeat %d: digest %s, first run %s", i, got[:12], want[:12])
		}
	}
}

// ringTags is the number of messages each rank of startRing's ring
// sends its right neighbour per iteration, as a halo exchange does.
const ringTags = 8

// startRing starts a ring of ranks in which each iteration posts
// ringTags receives from the left neighbour, sends as many messages of
// size to the right one, through Isend when isend is set, and waits
// for them all with WaitAll. Rank 0 stops the kernel as each iteration
// begins, so round runs one iteration.
func startRing(tb testing.TB, ranks int, size units.ByteSize, isend bool) (*sim.Kernel, func() error) {
	k, j := testJob(ranks, JobOptions{})
	var failed error
	j.Start(func(ctx *sim.Ctx, r *Rank) {
		w := r.World()
		left, right := (r.ID()+ranks-1)%ranks, (r.ID()+1)%ranks
		recvs := make([]*Request, ringTags)
		sends := make([]*Request, ringTags)
		for failed == nil {
			if r.ID() == 0 {
				ctx.Kernel().Stop()
			}
			for tag := range recvs {
				if recvs[tag], failed = r.Irecv(ctx, w, left, tag); failed != nil {
					return
				}
			}
			for tag := ringTags - 1; tag >= 0; tag-- {
				if isend {
					sends[tag], failed = r.Isend(ctx, w, right, tag, size, nil)
				} else {
					failed = r.Send(ctx, w, right, tag, size, nil)
				}
				if failed != nil {
					return
				}
			}
			if failed = WaitAll(ctx, recvs...); failed != nil {
				return
			}
			if failed = WaitAll(ctx, sends...); failed != nil {
				return
			}
		}
	})
	// Wire the job up; rank 0 stops the kernel before iteration 1.
	if err := k.Run(); err != nil {
		tb.Fatal(err)
	}
	return k, func() error {
		if err := k.Run(); err != nil {
			return err
		}
		return failed
	}
}

// TestIrecvWaitAllAllocatesNothing: once the freelists are warm, a
// ring iteration of Irecv, eager Send and WaitAll allocates nothing,
// because WaitAll hands every request back to its rank's freelist and
// the next Irecv takes it from there. With Isend in place of Send, what
// remains is each send's helper process: the spawn allocates its Proc
// and the closure it runs.
func TestIrecvWaitAllAllocatesNothing(t *testing.T) {
	const ranks = 8
	for _, c := range []struct {
		size  units.ByteSize
		isend bool
		want  float64
	}{
		{64, false, 0},
		{2 * units.KB, false, 0},
		{64, true, ranks * ringTags * 2},
		{2 * units.KB, true, ranks * ringTags * 2},
	} {
		k, round := startRing(t, ranks, c.size, c.isend)
		var err error
		run := func() {
			if e := round(); e != nil && err == nil {
				err = e
			}
		}
		for i := 0; i < 20; i++ {
			run()
		}
		got := testing.AllocsPerRun(100, run)
		k.Close()
		if err != nil {
			t.Fatalf("size %d isend %v: %v", c.size, c.isend, err)
		}
		if got != c.want {
			t.Errorf("size %d isend %v: %v allocations per iteration, want %v", c.size, c.isend, got, c.want)
		}
	}
}

// TestRecycledRequestsInOrder: five messages sent with Isend and Wait
// and received with Irecv and Wait arrive in order, alternating eager
// and rendezvous sizes. Each Wait frees its request, so every Isend and
// every Irecv gets the same request back from its rank's freelist, and
// the rendezvous receives share one data waiter. A Wait on a nil
// request, which WaitAll leaves behind, returns at once.
func TestRecycledRequestsInOrder(t *testing.T) {
	k, j := testJob(2, JobOptions{EagerThreshold: 8 * units.KB})
	defer k.Close()
	const iters = 5
	var got []int
	reqs := make([]map[*Request]bool, 2)
	waiters := map[*sim.Waiter]bool{}
	j.Start(func(ctx *sim.Ctx, r *Rank) {
		w := r.World()
		reqs[r.ID()] = map[*Request]bool{}
		for i := 0; i < iters; i++ {
			size := units.KB
			if i%2 == 1 {
				size = 16 * units.KB
			}
			var q *Request
			var err error
			if r.ID() == 0 {
				q, err = r.Isend(ctx, w, 1, 3, size, i)
			} else {
				q, err = r.Irecv(ctx, w, 0, 3)
			}
			if err != nil {
				t.Error(err)
				return
			}
			reqs[r.ID()][q] = true
			m, err := q.Wait(ctx)
			if err != nil {
				t.Error(err)
				return
			}
			if q.r != nil {
				t.Error("Wait left the request bound to its rank")
			}
			if r.ID() == 1 {
				got = append(got, m.Data.(int))
				if size > 8*units.KB {
					waiters[q.rdv] = true
				}
			}
		}
		m, err := (*Request)(nil).Wait(ctx)
		if err != nil || m != (Message{}) {
			t.Errorf("Wait on a nil request = %+v, %v, want a zero Message", m, err)
		}
	})
	if err := k.RunUntil(time.Minute); err != nil {
		t.Fatal(err)
	}
	if len(got) != iters {
		t.Fatalf("received %v, want %d messages", got, iters)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("received %v, want 0..%d in order", got, iters-1)
		}
	}
	for id, seen := range reqs {
		if len(seen) != 1 || len(j.ranks[id].reqFree) != 1 {
			t.Errorf("rank %d used %d requests and holds %d on its freelist, want the same one each time",
				id, len(seen), len(j.ranks[id].reqFree))
		}
	}
	if len(waiters) != 1 || waiters[nil] {
		t.Errorf("rendezvous receives left data waiters %v, want the one the request keeps", waiters)
	}
}

// TestCrashRecyclesRequestOnce: under ErrorsReturn, a nonblocking
// receive that its peer's crash fails (peerDown) and one that its own
// rank's crash fails (failAllLocal) each return the typed error from
// Wait and go back to their rank's request freelist exactly once, not
// while they are still pending; the restarted rank's next Irecv takes
// its request from there.
func TestCrashRecyclesRequestOnce(t *testing.T) {
	k, _, _, j := testJobNet(3, JobOptions{})
	defer k.Close()
	j.SetErrhandler(ErrorsReturn)
	var mine [2]*Request
	j.Start(func(ctx *sim.Ctx, r *Rank) {
		w := r.World()
		switch {
		case r.ID() == 0:
			q, err := r.Irecv(ctx, w, 2, 0)
			if err != nil {
				t.Error(err)
				return
			}
			mine[0] = q
			_, err = q.Wait(ctx)
			var rf *RankFailedError
			if !errors.As(err, &rf) || rf.Rank != 2 {
				t.Errorf("rank 0's Wait = %v, want rank 2's failure", err)
			}
			ctx.Sleep(3*time.Second - ctx.Now())
			if err := r.Send(ctx, w, 1, 0, units.KB, "after restart"); err != nil {
				t.Error(err)
			}
		case r.ID() == 1 && r.Epoch() == 0:
			q, err := r.Irecv(ctx, w, 0, 0)
			if err != nil {
				t.Error(err)
				return
			}
			mine[1] = q
			_, err = q.Wait(ctx)
			var rf *RankFailedError
			if !errors.As(err, &rf) || rf.Rank != 1 {
				t.Errorf("rank 1's Wait = %v, want its own failure", err)
			}
		case r.ID() == 1:
			q, err := r.Irecv(ctx, w, 0, 0)
			if err != nil {
				t.Error(err)
				return
			}
			if q != mine[1] {
				t.Error("the restarted rank's Irecv did not reuse the freed request")
			}
			if m, err := q.Wait(ctx); err != nil || m.Data != "after restart" {
				t.Errorf("restarted receive got %+v, %v", m, err)
			}
		default:
			ctx.Sleep(5 * time.Second)
		}
	})
	freeOnce := func(at string, want bool) {
		for id, q := range mine {
			n := 0
			for _, f := range j.ranks[id].reqFree {
				if f == q {
					n++
				}
			}
			if want && (n != 1 || len(j.ranks[id].reqFree) != 1) {
				t.Errorf("%s: rank %d's freelist holds its failed request %d times among %d, want once",
					at, id, n, len(j.ranks[id].reqFree))
			}
			if !want && n != 0 {
				t.Errorf("%s: rank %d's pending request is on its freelist", at, id)
			}
		}
	}
	k.At(500*time.Millisecond, sim.PrioNormal, func() { freeOnce("while pending", false) })
	k.At(time.Second, sim.PrioNormal, func() { j.CrashRank(2) })
	k.At(2*time.Second, sim.PrioNormal, func() { j.CrashRank(1) })
	k.At(2500*time.Millisecond, sim.PrioNormal, func() {
		freeOnce("after the failures", true)
		j.RestartRank(1, nil)
	})
	if err := k.RunUntil(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if !j.Done() {
		t.Error("job did not finish")
	}
}

// TestRecycledRequestMisusePanics: MPI lets one process wait on a
// request, once. A Wait on a request that an earlier Wait freed, and a
// second process's Wait on a live request, each panic their process
// with a message that names the misuse, which Kernel.Run reports,
// rather than hang.
func TestRecycledRequestMisusePanics(t *testing.T) {
	for _, c := range []struct {
		name string
		use  func(ctx *sim.Ctx, q *Request)
		want string
	}{
		{"wait twice", func(ctx *sim.Ctx, q *Request) {
			q.Wait(ctx)
			q.Wait(ctx)
		}, "an earlier Wait freed"},
		{"two waiters", func(ctx *sim.Ctx, q *Request) {
			ctx.SpawnChild("second-waiter", func(c *sim.Ctx) { q.Wait(c) })
			q.Wait(ctx)
		}, "a second process waits"},
	} {
		t.Run(c.name, func(t *testing.T) {
			k, j := testJob(2, JobOptions{})
			defer k.Close()
			j.Start(func(ctx *sim.Ctx, r *Rank) {
				if r.ID() == 1 {
					ctx.Sleep(time.Second)
					if err := r.Send(ctx, r.World(), 0, 0, units.KB, nil); err != nil {
						t.Error(err)
					}
					return
				}
				q, err := r.Irecv(ctx, r.World(), 1, 0)
				if err != nil {
					t.Error(err)
					return
				}
				c.use(ctx, q)
				t.Error("the misuse returned")
			})
			err := k.RunUntil(10 * time.Second)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("Run = %v, want a panic that says %q", err, c.want)
			}
		})
	}
}
