package mpi

import (
	"fmt"

	"mpichgq/internal/sim"
	"mpichgq/internal/units"
)

// Topology-aware collectives, after Karonis et al. ("Exploiting
// hierarchy in parallel computer networks to optimize collective
// operation performance", IPDPS 2000 — the paper's reference [23] and
// part of the same MPICH-G effort): ranks are grouped into sites, and
// collectives route through one leader per site so the constrained
// wide-area links are crossed a minimal number of times.

// Topo is a communicator annotated with site membership.
type Topo struct {
	comm *Comm
	// site[i] is the site id of the communicator's local rank i.
	site []int
	// local is this rank's site-local communicator; leaders is the
	// inter-site communicator of site leaders (nil on non-leaders).
	local   *Comm
	leaders *Comm
}

// NewTopo builds the topology structure over comm. Every member must
// call it with the same site slice (one entry per communicator rank,
// arbitrary non-negative site ids). It is collective: two CommSplits.
func (r *Rank) NewTopo(ctx *sim.Ctx, comm *Comm, site []int) (*Topo, error) {
	if len(site) != comm.Size() {
		return nil, fmt.Errorf("mpi: topo needs %d site entries, got %d", comm.Size(), len(site))
	}
	me := comm.localRank(r.id)
	if me < 0 {
		return nil, fmt.Errorf("mpi: rank %d not in communicator", r.id)
	}
	for _, s := range site {
		if s < 0 {
			return nil, fmt.Errorf("mpi: negative site id %d", s)
		}
	}
	local, err := r.CommSplit(ctx, comm, site[me], me)
	if err != nil {
		return nil, err
	}
	// The site leader is the member with the lowest communicator rank
	// in each site; leaders form their own communicator.
	leaderColor := -1
	if r.isLeader(comm, site, me) {
		leaderColor = 0
	}
	leaders, err := r.CommSplit(ctx, comm, leaderColor, me)
	if err != nil {
		return nil, err
	}
	return &Topo{comm: comm, site: append([]int(nil), site...), local: local, leaders: leaders}, nil
}

func (r *Rank) isLeader(comm *Comm, site []int, me int) bool {
	for i := 0; i < me; i++ {
		if site[i] == site[me] {
			return false
		}
	}
	return true
}

// leaderOf returns the communicator rank of the leader of rank i's
// site.
func (t *Topo) leaderOf(i int) int {
	for j := 0; j < len(t.site); j++ {
		if t.site[j] == t.site[i] {
			return j
		}
	}
	return i
}

// TopoBcast broadcasts n bytes from root: root sends to its own site
// leader's group first? No — root relays to site leaders over the
// wide area (once per remote site), then each leader broadcasts
// locally. The wide link carries the payload exactly (sites-1) times,
// versus O(log p) crossings for a site-oblivious binomial tree.
func (r *Rank) TopoBcast(ctx *sim.Ctx, t *Topo, root int, n units.ByteSize, data any) (any, error) {
	me := t.comm.localRank(r.id)
	if me < 0 {
		return nil, fmt.Errorf("mpi: rank %d not in communicator", r.id)
	}
	if root < 0 || root >= t.comm.Size() {
		return nil, fmt.Errorf("mpi: invalid bcast root %d", root)
	}
	rootLeader := t.leaderOf(root)
	// Phase 0: root hands the data to its site leader (local hop).
	if me == root && me != rootLeader {
		if err := r.Send(ctx, t.comm, rootLeader, tagBcast, n, data); err != nil {
			return nil, err
		}
	}
	if me == rootLeader && me != root {
		msg, err := r.Recv(ctx, t.comm, root, tagBcast)
		if err != nil {
			return nil, err
		}
		data, n = msg.Data, msg.Len
	}
	// Phase 1: the root's leader broadcasts across the leader
	// communicator (one wide-area transfer per remote site).
	if t.leaders != nil {
		lroot := t.leaders.localRank(t.comm.group[rootLeader])
		out, err := r.Bcast(ctx, t.leaders, lroot, n, data)
		if err != nil {
			return nil, err
		}
		data = out
	}
	// Phase 2: each leader broadcasts within its site.
	out, err := r.Bcast(ctx, t.local, 0, n, data)
	if err != nil {
		return nil, err
	}
	return out, nil
}

// TopoReduce reduces vec to root: local reduction to each site leader,
// leader reduction across the wide area, then a local hop to root if
// root is not its site's leader.
func (r *Rank) TopoReduce(ctx *sim.Ctx, t *Topo, root int, vec []float64, op ReduceOp) ([]float64, error) {
	me := t.comm.localRank(r.id)
	if me < 0 {
		return nil, fmt.Errorf("mpi: rank %d not in communicator", r.id)
	}
	if root < 0 || root >= t.comm.Size() {
		return nil, fmt.Errorf("mpi: invalid reduce root %d", root)
	}
	rootLeader := t.leaderOf(root)
	// Phase 1: reduce within each site to the local leader (local
	// rank 0 of the site communicator).
	partial, err := r.Reduce(ctx, t.local, 0, vec, op)
	if err != nil {
		return nil, err
	}
	// Phase 2: reduce across leaders to the root's site leader.
	var acc []float64
	if t.leaders != nil {
		lroot := t.leaders.localRank(t.comm.group[rootLeader])
		acc, err = r.Reduce(ctx, t.leaders, lroot, partial, op)
		if err != nil {
			return nil, err
		}
	} else {
		acc = partial
	}
	// Phase 3: local hop from the leader to root if they differ.
	if rootLeader != root {
		if me == rootLeader {
			if err := r.Send(ctx, t.comm, root, tagReduce, vecSize(acc), acc); err != nil {
				return nil, err
			}
			return nil, nil
		}
		if me == root {
			msg, err := r.Recv(ctx, t.comm, rootLeader, tagReduce)
			if err != nil {
				return nil, err
			}
			return msg.Data.([]float64), nil
		}
	}
	if me == root {
		return acc, nil
	}
	return nil, nil
}

// TopoAllreduce is TopoReduce to rank 0 followed by TopoBcast.
func (r *Rank) TopoAllreduce(ctx *sim.Ctx, t *Topo, vec []float64, op ReduceOp) ([]float64, error) {
	acc, err := r.TopoReduce(ctx, t, 0, vec, op)
	if err != nil {
		return nil, err
	}
	out, err := r.TopoBcast(ctx, t, 0, vecSize(vec), acc)
	if err != nil {
		return nil, err
	}
	return out.([]float64), nil
}

// TopoBarrier synchronizes through the hierarchy: local reduce, leader
// barrier, local release.
func (r *Rank) TopoBarrier(ctx *sim.Ctx, t *Topo) error {
	if _, err := r.Reduce(ctx, t.local, 0, []float64{1}, OpSum); err != nil {
		return err
	}
	if t.leaders != nil {
		if err := r.Barrier(ctx, t.leaders); err != nil {
			return err
		}
	}
	_, err := r.Bcast(ctx, t.local, 0, units.Byte, nil)
	return err
}
