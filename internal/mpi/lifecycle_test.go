package mpi

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
	"time"

	"mpichgq/internal/sim"
	"mpichgq/internal/units"
)

// lifecycleDigest runs one 3-rank job lifecycle: a ring exchange, then
// (if crash) a crash and restart of rank 2, then Finalize on every
// rank. It fails t if the job does not finish or any host keeps a TCP
// connection, and returns a digest of the run: the per-host connection
// counts over time, events executed, the final clock and every
// flight-recorder event.
func lifecycleDigest(t *testing.T, crash bool) string {
	t.Helper()
	k, j := testJob(3, JobOptions{})
	defer k.Close()
	j.Start(func(ctx *sim.Ctx, r *Rank) {
		me := r.ID()
		if r.Epoch() == 0 {
			if _, err := r.SendRecv(ctx, r.World(), (me+1)%3, 0, 10*units.KB, me, (me+2)%3, 0); err != nil {
				t.Errorf("rank %d exchange: %v", me, err)
				return
			}
			if crash && me == 2 {
				ctx.Sleep(time.Hour) // crashed meanwhile; the restart finalizes
				return
			}
			ctx.Sleep(3*time.Second - ctx.Now())
		}
		if err := r.Finalize(ctx); err != nil {
			t.Errorf("rank %d finalize: %v", me, err)
		}
	})
	// Teardown order is visible in when each host's connections go
	// away; log every change of the per-host connection counts.
	h := sha256.New()
	counts := make([]int, j.Size())
	var sample func()
	sample = func() {
		open := 0
		for i := range counts {
			n := j.Rank(i).Host().TCP.ConnCount()
			if n != counts[i] {
				counts[i] = n
				fmt.Fprintf(h, "%d host %d conns %d\n", k.Now(), i, n)
			}
			open += n
		}
		if !j.Done() || open > 0 {
			k.AfterPrio(25*time.Microsecond, sim.PrioLate, sample)
		}
	}
	k.At(0, sim.PrioLate, sample)
	if crash {
		k.At(time.Second, sim.PrioNormal, func() { j.CrashRank(2) })
		k.At(2*time.Second, sim.PrioNormal, func() { j.RestartRank(2, nil) })
	}
	if err := k.RunUntil(time.Minute); err != nil {
		t.Fatal(err)
	}
	if !j.Done() {
		t.Fatalf("job incomplete (blocked: %v)", k.BlockedProcs())
	}
	for i := 0; i < j.Size(); i++ {
		if n := j.Rank(i).Host().TCP.ConnCount(); n != 0 {
			t.Fatalf("rank %d leaked %d connections", i, n)
		}
	}
	fmt.Fprintf(h, "events %d now %d\n", k.EventsRun(), k.Now())
	for _, e := range k.Metrics().Events().Snapshot() {
		fmt.Fprintf(h, "%d %d %s %s %d %d %d\n", e.Seq, e.At, e.Type, e.Subject, e.V1, e.V2, e.V3)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestLifecycleDigestsRepeat runs the same MPI job lifecycle several
// times in one process, with and without a rank crash, and requires
// every run to leave no connection behind and to produce the same
// event digest. Go picks a new map iteration order on every range, so
// teardown that follows map order shows up as a digest mismatch.
func TestLifecycleDigestsRepeat(t *testing.T) {
	for _, crash := range []bool{false, true} {
		t.Run(fmt.Sprintf("crash=%v", crash), func(t *testing.T) {
			want := lifecycleDigest(t, crash)
			for i := 1; i < 8; i++ {
				if got := lifecycleDigest(t, crash); got != want {
					t.Fatalf("repeat %d: digest %s, first run %s", i, got[:12], want[:12])
				}
			}
		})
	}
}
