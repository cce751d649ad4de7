package mpi_test

import (
	"testing"
	"time"

	"mpichgq/internal/garnet"
	"mpichgq/internal/mpi"
	"mpichgq/internal/netsim"
	"mpichgq/internal/sim"
	"mpichgq/internal/tcpsim"
	"mpichgq/internal/units"
)

// TestJitteredHaloRingCompletes runs a halo ring on GARNET (8 ranks,
// 4 per premium host; per iteration: 1 ms ±20% compute, 8 Irecv from
// the left, 8 eager 2 KB sends to the right, wait, Allreduce). A
// jittered compute time once stranded a rank inside Compute with the
// kernel's queue empty — at seed 109 in the first iteration, at seeds
// 101 and 104 after about 700 — because a DSRT completion timer
// truncated to whole nanoseconds fired with work still owed and
// nothing rescheduled it. Every seed must run all its iterations.
func TestJitteredHaloRingCompletes(t *testing.T) {
	const (
		ranks = 8
		tags  = 8
		iters = 800
	)
	seeds := []int64{101, 104, 109}
	if testing.Short() {
		seeds = []int64{109}
	}
	for _, seed := range seeds {
		tb := garnet.New(seed)
		nodes := make([]*netsim.Node, ranks)
		for i := range nodes {
			nodes[i] = tb.PremSrc
			if i >= ranks/2 {
				nodes[i] = tb.PremDst
			}
		}
		done := make([]int, ranks)
		job := tb.NewMPIJob(nodes, tcpsim.DefaultOptions(), mpi.JobOptions{})
		job.Start(func(ctx *sim.Ctx, r *mpi.Rank) {
			world := r.World()
			left, right := (r.ID()+ranks-1)%ranks, (r.ID()+1)%ranks
			reqs := make([]*mpi.Request, tags)
			for it := 0; it < iters; it++ {
				r.Compute(ctx, time.Duration(float64(time.Millisecond)*ctx.RNG().Jitter(0.2)))
				for tag := range reqs {
					q, err := r.Irecv(ctx, world, left, tag)
					if err != nil {
						t.Error(err)
						return
					}
					reqs[tag] = q
				}
				for tag := tags - 1; tag >= 0; tag-- {
					if err := r.Send(ctx, world, right, tag, 2*units.KB, nil); err != nil {
						t.Error(err)
						return
					}
				}
				if err := mpi.WaitAll(ctx, reqs...); err != nil {
					t.Error(err)
					return
				}
				sum, err := r.Allreduce(ctx, world, []float64{float64(r.ID())}, mpi.OpSum)
				if err != nil || sum[0] != ranks*(ranks-1)/2 {
					t.Errorf("seed %d rank %d iteration %d: Allreduce = %v, %v", seed, r.ID(), it, sum, err)
					return
				}
				done[r.ID()]++
			}
		})
		if err := tb.K.Run(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for id, n := range done {
			if n != iters {
				t.Fatalf("seed %d: rank %d finished %d of %d iterations at %v (blocked: %v)",
					seed, id, n, iters, tb.K.Now(), tb.K.BlockedProcs())
			}
		}
	}
}
