package workloads

import (
	"fmt"
	"time"

	"mpichgq/internal/garnet"
	"mpichgq/internal/metrics"
	"mpichgq/internal/mpi"
	"mpichgq/internal/netsim"
	"mpichgq/internal/sim"
	"mpichgq/internal/tcpsim"
	"mpichgq/internal/units"
)

// Halo is an MPI ring exchange on a quiet GARNET: 8 ranks, 4 on each
// premium host. Each iteration computes for 1 ms, posts 8 Irecv from
// the left neighbour (tags 0-7), sends 8 eager 2 KB messages to the
// right in descending tag order, waits for the receives, then runs an
// Allreduce of the rank ids. The network carries no contention: a
// fluid blaster would starve this unreserved best-effort traffic.
func Halo(seed int64, iters int) *Workload {
	return &Workload{
		Name:   "mpi-halo",
		Points: 1,
		New:    func(int) (Point, error) { return newHaloPoint(seed, iters) },
	}
}

const (
	haloRanks   = 8
	haloTags    = 8
	haloMsgSize = 2 * units.KB
)

// haloPoint hands control back to the harness after every iteration:
// rank 0 stops the kernel when it finishes one, so each Kernel.Run
// call is one timed operation.
type haloPoint struct {
	tb    *garnet.Testbed
	job   *mpi.Job
	iters int
	// done counts the iterations rank 0 finished; sum adds up rank 0's
	// Allreduce results.
	done int
	sum  float64
	err  error
}

func newHaloPoint(seed int64, iters int) (*haloPoint, error) {
	tb := garnet.New(seed)
	nodes := make([]*netsim.Node, haloRanks)
	for i := range nodes {
		nodes[i] = tb.PremSrc
		if i >= haloRanks/2 {
			nodes[i] = tb.PremDst
		}
	}
	p := &haloPoint{tb: tb, iters: iters}
	p.job = tb.NewMPIJob(nodes, tcpsim.DefaultOptions(), mpi.JobOptions{})
	p.job.Start(p.rank)
	// Wire the job up (MPI_Init) as part of the set-up: rank 0 stops
	// the kernel as it enters main.
	if err := tb.K.Run(); err != nil {
		return nil, err
	}
	if p.done != 0 || p.err != nil || tb.K.PendingEvents() == 0 {
		return nil, fmt.Errorf("mpi-halo: job did not start: %v", p.err)
	}
	return p, nil
}

func (p *haloPoint) fail(err error) {
	if p.err == nil {
		p.err = err
	}
}

func (p *haloPoint) rank(ctx *sim.Ctx, r *mpi.Rank) {
	world := r.World()
	n := world.Size()
	left, right := (r.ID()+n-1)%n, (r.ID()+1)%n
	want := float64(n * (n - 1) / 2)
	if r.ID() == 0 {
		ctx.Kernel().Stop()
	}
	reqs := make([]*mpi.Request, haloTags)
	for it := 0; it < p.iters; it++ {
		r.Compute(ctx, time.Millisecond)
		for tag := range reqs {
			q, err := r.Irecv(ctx, world, left, tag)
			if err != nil {
				p.fail(err)
				return
			}
			reqs[tag] = q
		}
		for tag := haloTags - 1; tag >= 0; tag-- {
			if err := r.Send(ctx, world, right, tag, haloMsgSize, nil); err != nil {
				p.fail(err)
				return
			}
		}
		if err := mpi.WaitAll(ctx, reqs...); err != nil {
			p.fail(err)
			return
		}
		sum, err := r.Allreduce(ctx, world, []float64{float64(r.ID())}, mpi.OpSum)
		if err != nil {
			p.fail(err)
			return
		}
		if sum[0] != want {
			p.fail(fmt.Errorf("rank %d iteration %d: Allreduce sum %v, want %v", r.ID(), it, sum[0], want))
			return
		}
		if r.ID() == 0 {
			p.done++
			p.sum += sum[0]
			ctx.Kernel().Stop()
		}
	}
}

func (p *haloPoint) Ops() int { return p.iters }

// Op runs the kernel until rank 0 finishes iteration j.
func (p *haloPoint) Op(j int) (string, error) {
	const call = "sim.Kernel.Run"
	if err := p.tb.K.Run(); err != nil {
		return call, err
	}
	if p.err != nil {
		return call, p.err
	}
	if p.done != j+1 {
		return call, fmt.Errorf("mpi-halo: rank 0 blocked in iteration %d (blocked: %v)", j, p.tb.K.BlockedProcs())
	}
	return call, nil
}

func (p *haloPoint) Registry() *metrics.Registry { return p.tb.K.Metrics() }

// Collect lets the other ranks finish the last iteration, then checks
// that every rank returned.
func (p *haloPoint) Collect() (Result, error) {
	if err := p.tb.K.Run(); err != nil {
		return Result{}, err
	}
	if p.err != nil {
		return Result{}, p.err
	}
	if !p.job.Done() {
		return Result{}, fmt.Errorf("mpi-halo: ranks still blocked after the last iteration: %v", p.tb.K.BlockedProcs())
	}
	return Result{
		Record: record("iterations", p.done, "sum", p.sum, "end_ns", int64(p.tb.K.Now()), "events", p.tb.K.EventsRun()),
		Counts: map[string]float64{
			CountEvents: float64(p.tb.K.EventsRun()),
			CountSlots:  float64(p.tb.NetRM.Table(p.tb.Bottleneck.A()).Len()),
		},
	}, nil
}
