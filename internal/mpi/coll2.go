package mpi

import (
	"fmt"

	"mpichgq/internal/sim"
)

// Additional collectives: Alltoall, Scan, ReduceScatter. Like the
// core set they run on the communicator's collective context.

// Collective wire tags (continued).
const (
	tagAlltoall = 1<<20 + 5
	tagScan     = 1<<20 + 6
)

// Alltoall delivers parts[i] (one slice per member, rank order) to
// member i and returns the rank-ordered slices received from every
// member. Rounds follow a ring schedule (send to me+round, receive
// from me-round), which stays symmetric for every communicator size.
func (r *Rank) Alltoall(ctx *sim.Ctx, comm *Comm, parts [][]float64) ([][]float64, error) {
	size := comm.Size()
	me := comm.localRank(r.id)
	if me < 0 {
		return nil, fmt.Errorf("mpi: rank %d not in communicator", r.id)
	}
	if len(parts) != size {
		return nil, fmt.Errorf("mpi: alltoall needs %d parts, got %d", size, len(parts))
	}
	cc := collComm(comm)
	out := make([][]float64, size)
	out[me] = parts[me]
	for round := 1; round < size; round++ {
		dest := (me + round) % size
		src := (me - round + size) % size
		req, err := r.Isend(ctx, cc, dest, tagAlltoall+round, vecSize(parts[dest]), parts[dest])
		if err != nil {
			return nil, err
		}
		msg, err := r.Recv(ctx, cc, src, tagAlltoall+round)
		if err != nil {
			return nil, err
		}
		if err := req.Wait(ctx); err != nil {
			return nil, err
		}
		out[src] = msg.Data.([]float64)
	}
	return out, nil
}

// Scan computes the inclusive prefix reduction: rank i receives
// op(vec_0, ..., vec_i). Linear chain, as in MPICH's default.
func (r *Rank) Scan(ctx *sim.Ctx, comm *Comm, vec []float64, op ReduceOp) ([]float64, error) {
	size := comm.Size()
	me := comm.localRank(r.id)
	if me < 0 {
		return nil, fmt.Errorf("mpi: rank %d not in communicator", r.id)
	}
	cc := collComm(comm)
	acc := append([]float64(nil), vec...)
	if me > 0 {
		msg, err := r.Recv(ctx, cc, me-1, tagScan)
		if err != nil {
			return nil, err
		}
		acc = op(msg.Data.([]float64), acc)
	}
	if me < size-1 {
		if err := r.Send(ctx, cc, me+1, tagScan, vecSize(acc), acc); err != nil {
			return nil, err
		}
	}
	return acc, nil
}

// ReduceScatter reduces the concatenation of every member's vec
// elementwise and scatters equal chunks: with vec of length size*k,
// rank i receives elements [i*k, (i+1)*k) of the reduction.
func (r *Rank) ReduceScatter(ctx *sim.Ctx, comm *Comm, vec []float64, op ReduceOp) ([]float64, error) {
	size := comm.Size()
	me := comm.localRank(r.id)
	if me < 0 {
		return nil, fmt.Errorf("mpi: rank %d not in communicator", r.id)
	}
	if len(vec)%size != 0 {
		return nil, fmt.Errorf("mpi: reduce-scatter vector length %d not divisible by %d", len(vec), size)
	}
	// Reduce to rank 0, then scatter chunks (simple and correct; a
	// butterfly would halve the traffic for large vectors).
	acc, err := r.Reduce(ctx, comm, 0, vec, op)
	if err != nil {
		return nil, err
	}
	k := len(vec) / size
	var parts [][]float64
	if me == 0 {
		parts = make([][]float64, size)
		for i := 0; i < size; i++ {
			parts[i] = acc[i*k : (i+1)*k]
		}
	}
	return r.Scatter(ctx, comm, 0, parts)
}

// Gatherv is Gather with per-rank vector lengths (lengths need not
// match across ranks); root receives the rank-ordered concatenation.
func (r *Rank) Gatherv(ctx *sim.Ctx, comm *Comm, root int, vec []float64) ([]float64, error) {
	// The fixed-length Gather already handles heterogeneous lengths
	// (slices carry their own length); expose the intent explicitly.
	return r.Gather(ctx, comm, root, vec)
}
