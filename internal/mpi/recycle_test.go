package mpi

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
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
