package mpi

import (
	"fmt"

	"mpichgq/internal/sim"
	"mpichgq/internal/units"
)

// Collective operations run on the communicator's collective context
// (ctxID+1) so they never interfere with user point-to-point traffic,
// the standard MPICH arrangement.

// collComm returns a shadow communicator on the collective context.
func collComm(c *Comm) *Comm {
	return &Comm{job: c.job, ctxID: c.ctxID + 1, group: c.group, inter: c.inter}
}

// Collective wire tags.
const (
	tagBarrier = 1 << 20
	tagBcast   = 1<<20 + 1
	tagReduce  = 1<<20 + 2
	tagGather  = 1<<20 + 3
)

// Barrier blocks until every member of comm has entered it
// (dissemination algorithm, ceil(log2 n) rounds).
func (r *Rank) Barrier(ctx *sim.Ctx, comm *Comm) error {
	size := comm.Size()
	if size == 1 {
		return nil
	}
	cc := collComm(comm)
	me := comm.localRank(r.id)
	if me < 0 {
		return fmt.Errorf("mpi: rank %d not in communicator", r.id)
	}
	for dist := 1; dist < size; dist <<= 1 {
		to := (me + dist) % size
		from := (me - dist + size) % size
		if _, err := r.SendRecv(ctx, cc, to, tagBarrier+dist, units.Byte, nil, from, tagBarrier+dist); err != nil {
			return err
		}
	}
	return nil
}

// Bcast distributes n bytes of data from root to every member over a
// binomial tree, returning the data on every rank.
func (r *Rank) Bcast(ctx *sim.Ctx, comm *Comm, root int, n units.ByteSize, data any) (any, error) {
	size := comm.Size()
	me := comm.localRank(r.id)
	if me < 0 {
		return nil, fmt.Errorf("mpi: rank %d not in communicator", r.id)
	}
	if root < 0 || root >= size {
		return nil, fmt.Errorf("mpi: invalid bcast root %d", root)
	}
	if size == 1 {
		return data, nil
	}
	cc := collComm(comm)
	rel := (me - root + size) % size
	// Receive phase: find my parent.
	mask := 1
	for mask < size {
		if rel&mask != 0 {
			parent := (me - mask + size) % size
			msg, err := r.Recv(ctx, cc, parent, tagBcast)
			if err != nil {
				return nil, err
			}
			data = msg.Data
			n = msg.Len
			break
		}
		mask <<= 1
	}
	// Send phase: relay to children.
	mask >>= 1
	for mask > 0 {
		if rel+mask < size {
			child := (me + mask) % size
			if err := r.Send(ctx, cc, child, tagBcast, n, data); err != nil {
				return nil, err
			}
		}
		mask >>= 1
	}
	return data, nil
}

// ReduceOp combines two vectors elementwise.
type ReduceOp func(a, b []float64) []float64

// OpSum adds vectors elementwise.
func OpSum(a, b []float64) []float64 {
	out := make([]float64, len(a))
	for i := range a {
		out[i] = a[i] + b[i]
	}
	return out
}

// vecSize is the wire size of a float64 vector.
func vecSize(v []float64) units.ByteSize { return units.ByteSize(8 * len(v)) }

// Reduce combines vec across comm with op; the result lands on root
// (other ranks get nil). Binomial-tree reduction.
func (r *Rank) Reduce(ctx *sim.Ctx, comm *Comm, root int, vec []float64, op ReduceOp) ([]float64, error) {
	size := comm.Size()
	me := comm.localRank(r.id)
	if me < 0 {
		return nil, fmt.Errorf("mpi: rank %d not in communicator", r.id)
	}
	if root < 0 || root >= size {
		return nil, fmt.Errorf("mpi: invalid reduce root %d", root)
	}
	cc := collComm(comm)
	rel := (me - root + size) % size
	acc := append([]float64(nil), vec...)
	for mask := 1; mask < size; mask <<= 1 {
		if rel&mask != 0 {
			parent := (me - mask + size) % size
			if err := r.Send(ctx, cc, parent, tagReduce, vecSize(acc), acc); err != nil {
				return nil, err
			}
			return nil, nil
		}
		src := rel | mask
		if src < size {
			from := (src + root) % size
			msg, err := r.Recv(ctx, cc, from, tagReduce)
			if err != nil {
				return nil, err
			}
			acc = op(acc, msg.Data.([]float64))
		}
	}
	return acc, nil
}

// Allreduce combines vec across comm and returns the result on every
// rank (Reduce to local root 0 then Bcast).
func (r *Rank) Allreduce(ctx *sim.Ctx, comm *Comm, vec []float64, op ReduceOp) ([]float64, error) {
	acc, err := r.Reduce(ctx, comm, 0, vec, op)
	if err != nil {
		return nil, err
	}
	out, err := r.Bcast(ctx, comm, 0, vecSize(vec), acc)
	if err != nil {
		return nil, err
	}
	return out.([]float64), nil
}

// Gather concatenates each member's vector on root in rank order
// (other ranks get nil).
func (r *Rank) Gather(ctx *sim.Ctx, comm *Comm, root int, vec []float64) ([]float64, error) {
	size := comm.Size()
	me := comm.localRank(r.id)
	if me < 0 {
		return nil, fmt.Errorf("mpi: rank %d not in communicator", r.id)
	}
	if root < 0 || root >= size {
		return nil, fmt.Errorf("mpi: invalid gather root %d", root)
	}
	cc := collComm(comm)
	if me != root {
		return nil, r.Send(ctx, cc, root, tagGather, vecSize(vec), vec)
	}
	out := make([]float64, 0, size*len(vec))
	parts := make([][]float64, size)
	parts[me] = vec
	for i := 0; i < size; i++ {
		if i == me {
			continue
		}
		msg, err := r.Recv(ctx, cc, i, tagGather)
		if err != nil {
			return nil, err
		}
		parts[i] = msg.Data.([]float64)
	}
	for _, p := range parts {
		out = append(out, p...)
	}
	return out, nil
}

// Allgather returns the rank-ordered concatenation of every member's
// vector on every rank.
func (r *Rank) Allgather(ctx *sim.Ctx, comm *Comm, vec []float64) ([]float64, error) {
	all, err := r.Gather(ctx, comm, 0, vec)
	if err != nil {
		return nil, err
	}
	out, err := r.Bcast(ctx, comm, 0, vecSize(vec)*units.ByteSize(comm.Size()), all)
	if err != nil {
		return nil, err
	}
	return out.([]float64), nil
}
