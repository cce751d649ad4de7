package mpi

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"testing"
	"time"

	"mpichgq/internal/faults"
	"mpichgq/internal/netsim"
	"mpichgq/internal/sim"
	"mpichgq/internal/tcpsim"
	"mpichgq/internal/units"
)

// testJobNet is testJob, additionally returning the network and the
// switch node so tests can attach spare hosts or apply fault
// scenarios.
func testJobNet(n int, opts JobOptions) (*sim.Kernel, *netsim.Network, *netsim.Node, *Job) {
	k := sim.New(1)
	net := netsim.New(k)
	sw := net.AddNode("switch")
	hosts := make([]*Host, n)
	for i := 0; i < n; i++ {
		nd := net.AddNode(nodeName(i))
		net.Connect(nd, sw, 100*units.Mbps, 100*time.Microsecond)
		hosts[i] = NewHost(nd, tcpsim.DefaultOptions())
	}
	net.ComputeRoutes()
	return k, net, sw, NewJob(k, hosts, opts)
}

// TestCrashFailsPendingRecv: a blocked directed receive from a rank
// that crashes completes with the typed rank-failure error, and the
// failed-process group reports the crash.
func TestCrashFailsPendingRecv(t *testing.T) {
	k, _, _, j := testJobNet(3, JobOptions{})
	var recvErr error
	var group []int
	j.Start(func(ctx *sim.Ctx, r *Rank) {
		if r.ID() != 1 {
			ctx.Sleep(5 * time.Second) // rank 2 sends nothing, then exits
			return
		}
		_, recvErr = r.Recv(ctx, r.World(), 2, 0)
		group = r.CommGroupFailed(r.World())
	})
	k.At(time.Second, sim.PrioNormal, func() { j.CrashRank(2) })
	if err := k.RunUntil(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(recvErr, ErrRankFailed) {
		t.Fatalf("recv error = %v, want ErrRankFailed", recvErr)
	}
	var rf *RankFailedError
	if !errors.As(recvErr, &rf) || rf.Rank != 2 {
		t.Fatalf("recv error = %v, want *RankFailedError{Rank: 2}", recvErr)
	}
	if len(group) != 1 || group[0] != 2 {
		t.Fatalf("CommGroupFailed = %v, want [2]", group)
	}
	if got := j.FailedRanks(); len(got) != 1 || got[0] != 2 {
		t.Fatalf("FailedRanks = %v, want [2]", got)
	}
}

// TestWildcardRecvFailsOnMemberCrash: an outstanding MPI_ANY_SOURCE
// receive completes with error as soon as any communicator member
// fails — the failed rank might have been the intended sender.
func TestWildcardRecvFailsOnMemberCrash(t *testing.T) {
	k, _, _, j := testJobNet(3, JobOptions{})
	var recvErr error
	j.Start(func(ctx *sim.Ctx, r *Rank) {
		if r.ID() != 0 {
			ctx.Sleep(5 * time.Second)
			return
		}
		_, recvErr = r.Recv(ctx, r.World(), AnySource, AnyTag)
	})
	k.At(time.Second, sim.PrioNormal, func() { j.CrashRank(2) })
	if err := k.RunUntil(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	var rf *RankFailedError
	if !errors.As(recvErr, &rf) || rf.Rank != 2 {
		t.Fatalf("wildcard recv error = %v, want *RankFailedError{Rank: 2}", recvErr)
	}
}

// TestRendezvousSenderFailsWhenReceiverCrashes: a rendezvous send
// blocked on clear-to-send fails (rather than hangs) when the
// receiver dies before matching.
func TestRendezvousSenderFailsWhenReceiverCrashes(t *testing.T) {
	k, _, _, j := testJobNet(2, JobOptions{})
	var sendErr error
	j.Start(func(ctx *sim.Ctx, r *Rank) {
		if r.ID() != 0 {
			ctx.Sleep(5 * time.Second) // never posts the receive
			return
		}
		sendErr = r.Send(ctx, r.World(), 1, 0, units.MB, nil)
	})
	k.At(time.Second, sim.PrioNormal, func() { j.CrashRank(1) })
	if err := k.RunUntil(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(sendErr, ErrRankFailed) {
		t.Fatalf("rendezvous send error = %v, want ErrRankFailed", sendErr)
	}
}

// TestRendezvousReceiverFailsWhenSenderCrashes: a receiver blocked
// waiting for announced rendezvous data fails when the sender dies
// between RTS and the data.
func TestRendezvousReceiverFailsWhenSenderCrashes(t *testing.T) {
	k, _, _, j := testJobNet(2, JobOptions{})
	var recvErr error
	recvErrSet := false
	j.Start(func(ctx *sim.Ctx, r *Rank) {
		w := r.World()
		if r.ID() == 0 {
			// 8 MB at 100 Mb/s takes ~0.7 s; the crash at 100 ms lands
			// mid-transfer, after the CTS.
			_ = r.Send(ctx, w, 1, 0, 8*units.MB, nil)
			return
		}
		_, recvErr = r.Recv(ctx, w, 0, 0)
		recvErrSet = true
	})
	k.At(100*time.Millisecond, sim.PrioNormal, func() { j.CrashRank(0) })
	if err := k.RunUntil(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if !recvErrSet {
		t.Fatal("receiver still blocked after sender crash")
	}
	if !errors.Is(recvErr, ErrRankFailed) {
		t.Fatalf("recv error = %v, want ErrRankFailed", recvErr)
	}
}

// TestBcastPartialFailure: a binomial-tree broadcast with one crashed
// leaf fails on the rank whose tree edge touches the failure (the
// leaf's parent) while the other ranks complete — "some but not
// necessarily all processes return errors".
func TestBcastPartialFailure(t *testing.T) {
	k, _, _, j := testJobNet(4, JobOptions{})
	errs := make([]error, 4)
	done := make([]bool, 4)
	j.Start(func(ctx *sim.Ctx, r *Rank) {
		if r.ID() == 3 {
			ctx.Sleep(10 * time.Second)
			return
		}
		ctx.Sleep(2 * time.Second) // let the crash land first
		_, errs[r.ID()] = r.Bcast(ctx, r.World(), 0, 10*units.KB, "payload")
		done[r.ID()] = true
	})
	k.At(time.Second, sim.PrioNormal, func() { j.CrashRank(3) })
	if err := k.RunUntil(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	for _, id := range []int{0, 1, 2} {
		if !done[id] {
			t.Fatalf("rank %d still blocked in Bcast", id)
		}
	}
	// In the 4-rank binomial tree rooted at 0, rank 2 relays to rank 3.
	if errs[0] != nil || errs[1] != nil {
		t.Fatalf("ranks off the failed edge errored: rank0=%v rank1=%v", errs[0], errs[1])
	}
	if !errors.Is(errs[2], ErrRankFailed) {
		t.Fatalf("rank 2 (parent of crashed leaf) error = %v, want ErrRankFailed", errs[2])
	}
}

// TestCheckpointRestartResume: a worker checkpointing every few steps
// is crashed and restarted via the fault-scenario actions; the new
// incarnation resumes from the last checkpoint and finishes the
// remaining steps without redoing completed work more than one
// checkpoint interval back.
func TestCheckpointRestartResume(t *testing.T) {
	const steps = 20
	k, net, _, j := testJobNet(2, JobOptions{})
	var firstStep = -1 // first step executed by incarnation 1
	var finalEpoch int
	completed := false
	j.Start(func(ctx *sim.Ctx, r *Rank) {
		w := r.World()
		if r.ID() == 0 {
			// Coordinator: receive step acks until the worker finishes,
			// tolerating the crash window.
			got := 0
			for got < steps {
				m, err := r.Recv(ctx, w, 1, 0)
				if err != nil {
					ctx.Sleep(100 * time.Millisecond)
					continue
				}
				if m.Data.(int) >= steps-1 {
					break
				}
				got++
			}
			completed = true
			return
		}
		step := 0
		if ck, ok := r.LastCheckpoint(); ok {
			step = ck.Step
			if firstStep < 0 {
				firstStep = step
			}
		}
		for ; step < steps; step++ {
			r.Compute(ctx, 100*time.Millisecond)
			if r.Crashed() {
				return
			}
			if (step+1)%4 == 0 {
				r.SaveCheckpoint(ctx, step+1, nil)
			}
			if err := r.Send(ctx, w, 0, 0, units.KB, step); err != nil {
				return
			}
		}
		finalEpoch = r.Epoch()
	})
	faults.NewScenario("ckpt-restart").
		RankCrash(time.Second, "rank-1").
		RankRestart(1500*time.Millisecond, "rank-1").
		MustApply(net, faults.Targets{Ranks: j})
	if err := k.RunUntil(time.Minute); err != nil {
		t.Fatal(err)
	}
	if !completed {
		t.Fatal("job never completed after restart")
	}
	if finalEpoch != 1 {
		t.Fatalf("final incarnation epoch = %d, want 1", finalEpoch)
	}
	// The crash lands around step 9-10 (100 ms per step); the last
	// checkpoint then is step 8: the restart must resume from a
	// checkpoint, not from scratch.
	if firstStep <= 0 {
		t.Fatalf("restarted incarnation resumed at step %d, want a checkpointed step > 0", firstStep)
	}
	if firstStep%4 != 0 {
		t.Fatalf("restart resumed at step %d, not a checkpoint boundary", firstStep)
	}
}

// TestRestartOnFreshHost: a crashed rank restarted on a spare node
// (new TCP stack, new address) rejoins the mesh and communicates.
func TestRestartOnFreshHost(t *testing.T) {
	k, net, sw, j := testJobNet(2, JobOptions{})
	spare := net.AddNode("spare-host")
	net.Connect(spare, sw, 100*units.Mbps, 100*time.Microsecond)
	net.ComputeRoutes()
	spareHost := NewHost(spare, tcpsim.DefaultOptions())

	delivered := -1
	j.Start(func(ctx *sim.Ctx, r *Rank) {
		w := r.World()
		if r.ID() == 0 {
			for {
				m, err := r.Recv(ctx, w, 1, 0)
				if err != nil {
					ctx.Sleep(100 * time.Millisecond)
					continue
				}
				if m.Data.(int) == 99 {
					delivered = 99
					return
				}
			}
		}
		if r.Epoch() == 0 {
			ctx.Sleep(time.Hour) // first incarnation idles until crashed
			return
		}
		// Restarted on the spare host: prove the new path works.
		if r.Host().Node.Name() != "spare-host" {
			t.Errorf("restarted on %q, want spare-host", r.Host().Node.Name())
		}
		_ = r.Send(ctx, w, 0, 0, units.KB, 99)
	})
	k.At(time.Second, sim.PrioNormal, func() { j.CrashRank(1) })
	k.At(2*time.Second, sim.PrioNormal, func() { j.RestartRank(1, spareHost) })
	if err := k.RunUntil(time.Minute); err != nil {
		t.Fatal(err)
	}
	if delivered != 99 {
		t.Fatal("message from the fresh-host incarnation never arrived")
	}
}

// TestRankFailureChaosSoak drives a 4-rank ring workload through a
// seeded exponential crash/restart schedule and checks the
// fault-tolerance contract end to end: no surviving rank ever hangs on
// communication with a failed rank (the run keeps making progress to
// the horizon), and the mesh keeps carrying traffic after restarts.
func TestRankFailureChaosSoak(t *testing.T) {
	const horizon = 2 * time.Minute
	k, net, _, j := testJobNet(4, JobOptions{})
	progress := make([]int, 4) // successful round-trips per rank
	j.Start(func(ctx *sim.Ctx, r *Rank) {
		w := r.World()
		n := j.Size()
		dest := (r.ID() + 1) % n
		src := (r.ID() + n - 1) % n
		for ctx.Now() < horizon && !r.Crashed() {
			if err := r.Send(ctx, w, dest, 0, 64*units.KB, r.ID()); err != nil {
				ctx.Sleep(50 * time.Millisecond)
				continue
			}
			if _, err := r.Recv(ctx, w, src, 0); err != nil {
				ctx.Sleep(50 * time.Millisecond)
				continue
			}
			progress[r.ID()]++
			ctx.Sleep(10 * time.Millisecond)
		}
	})
	sc := faults.RankMTBF(sim.NewRNG(7),
		[]string{"rank-0", "rank-1", "rank-2", "rank-3"},
		20*time.Second, 2*time.Second, horizon)
	sc.MustApply(net, faults.Targets{Ranks: j})
	if err := k.RunUntil(horizon); err != nil {
		t.Fatal(err)
	}
	if k.Now() < horizon {
		t.Fatalf("simulation stalled at %v before the %v horizon", k.Now(), horizon)
	}
	for id, p := range progress {
		if p == 0 {
			t.Errorf("rank %d made no progress across the whole soak", id)
		}
	}
	// The schedule repairs every crash before the horizon, so the job
	// must end with an empty failed group.
	if got := j.FailedRanks(); len(got) != 0 {
		t.Fatalf("failed ranks at horizon: %v, want none", got)
	}
}

// crashSendersDigest runs two ranks that each start eight child
// processes, every child a 1 MB rendezvous send to the other rank,
// which never posts a receive. Rank 1 crashes at 1 s: its own sends
// fail through the crashing rank's cleanup, rank 0's through its
// progress engine seeing the peer go down. The digest records when and
// in what order each child's send returned, and with what error.
func crashSendersDigest(t *testing.T) string {
	t.Helper()
	k, _, _, j := testJobNet(2, JobOptions{})
	defer k.Close()
	h := sha256.New()
	j.Start(func(ctx *sim.Ctx, r *Rank) {
		if r.Epoch() > 0 {
			return
		}
		me := r.ID()
		for c := 0; c < 8; c++ {
			c := c
			ctx.SpawnChild(fmt.Sprintf("r%d/send%d", me, c), func(ctx *sim.Ctx) {
				err := r.Send(ctx, r.World(), 1-me, c, units.MB, nil)
				fmt.Fprintf(h, "%d rank %d child %d: %v\n", ctx.Now(), me, c, err)
			})
		}
		ctx.Sleep(5 * time.Second)
	})
	k.At(time.Second, sim.PrioNormal, func() { j.CrashRank(1) })
	if err := k.RunUntil(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(h, "events %d\n", k.EventsRun())
	for _, e := range k.Metrics().Events().Snapshot() {
		fmt.Fprintf(h, "%d %d %s %s %d %d %d\n", e.Seq, e.At, e.Type, e.Subject, e.V1, e.V2, e.V3)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestCrashWakesBlockedSendersInOrder: senders blocked on a crashing
// peer's clear-to-send wake in the order they started, not in Go's map
// order, so thirty repeats of one run give one digest.
func TestCrashWakesBlockedSendersInOrder(t *testing.T) {
	want := crashSendersDigest(t)
	for i := 1; i < 30; i++ {
		if got := crashSendersDigest(t); got != want {
			t.Fatalf("repeat %d: digest %s, first run %s", i, got[:12], want[:12])
		}
	}
}
