package mpi

import (
	"fmt"
	"sort"

	"mpichgq/internal/netsim"
	"mpichgq/internal/sim"
	"mpichgq/internal/units"
)

// Comm is an MPI communicator: a group of processes with a unique
// communication context, so messages sent in one communicator cannot
// be received in another. Intercommunicators additionally partition
// the group into a local and a remote side.
type Comm struct {
	job   *Job
	ctxID int   // point-to-point context; ctxID+1 is the collective context
	group []int // global ranks; index = local rank

	// Intercommunicator fields: when inter is true, group holds the
	// two-party pair [low, high].
	inter bool

	attrs map[Keyval]any
}

// Size returns the number of processes in the communicator.
func (c *Comm) Size() int { return len(c.group) }

// Group returns the global ranks of the members (local rank order).
func (c *Comm) Group() []int {
	out := make([]int, len(c.group))
	copy(out, c.group)
	return out
}

// Context returns the communicator's context id (diagnostics).
func (c *Comm) Context() int { return c.ctxID }

// globalRank translates a local rank to a world rank.
func (c *Comm) globalRank(local int) (int, error) {
	if local < 0 || local >= len(c.group) {
		return 0, fmt.Errorf("mpi: rank %d out of range for communicator of size %d", local, len(c.group))
	}
	return c.group[local], nil
}

// localRank translates a world rank to this communicator's local rank
// (-1 if not a member).
func (c *Comm) localRank(global int) int {
	for i, g := range c.group {
		if g == global {
			return i
		}
	}
	return -1
}

// RankIn returns the calling rank's local rank in c (-1 if not a
// member).
func (r *Rank) RankIn(c *Comm) int { return c.localRank(r.id) }

// CommSplit partitions comm: every member calls it with a color and a
// key; members with the same color form a new communicator, ordered by
// (key, old rank). A negative color yields nil (MPI_UNDEFINED).
//
// This is a collective call: all members of comm must call it the same
// number of times.
func (r *Rank) CommSplit(ctx *sim.Ctx, comm *Comm, color, key int) (*Comm, error) {
	me := comm.localRank(r.id)
	if me < 0 {
		return nil, fmt.Errorf("mpi: rank %d not in communicator", r.id)
	}
	// Allgather (color, key) pairs over the parent communicator.
	pairs, err := r.Allgather(ctx, comm, []float64{float64(color), float64(key)})
	if err != nil {
		return nil, err
	}
	epoch := r.splitEpoch[comm.ctxID]
	r.splitEpoch[comm.ctxID]++
	if color < 0 {
		return nil, nil
	}
	type member struct{ gRank, key int }
	var members []member
	for i := 0; i < comm.Size(); i++ {
		c := int(pairs[2*i])
		k := int(pairs[2*i+1])
		if c == color {
			members = append(members, member{gRank: comm.group[i], key: k})
		}
	}
	sort.Slice(members, func(i, j int) bool {
		if members[i].key != members[j].key {
			return members[i].key < members[j].key
		}
		return members[i].gRank < members[j].gRank
	})
	group := make([]int, len(members))
	for i, m := range members {
		group[i] = m.gRank
	}
	ctxKey := fmt.Sprintf("split:%d:%d:%d", comm.ctxID, epoch, color)
	return &Comm{job: r.job, ctxID: r.job.allocCtx(ctxKey), group: group}, nil
}

// PairComm builds the two-party intercommunicator MPICH-GQ attaches
// QoS to: both endpoints call it with the other's world rank. The
// same pair may create several distinct intercommunicators (each call
// pairs with the matching call on the peer).
func (r *Rank) PairComm(ctx *sim.Ctx, peer int) (*Comm, error) {
	if peer == r.id {
		return nil, fmt.Errorf("mpi: cannot pair a rank with itself")
	}
	if peer < 0 || peer >= r.job.Size() {
		return nil, fmt.Errorf("mpi: peer %d out of range", peer)
	}
	lo, hi := r.id, peer
	if lo > hi {
		lo, hi = hi, lo
	}
	ek := [3]int{lo, hi, 0}
	epoch := r.pairEpoch[ek]
	r.pairEpoch[ek]++
	ctxKey := fmt.Sprintf("pair:%d:%d:%d", lo, hi, epoch)
	c := &Comm{job: r.job, ctxID: r.job.allocCtx(ctxKey), group: []int{lo, hi}, inter: true}
	// Handshake on the new context so both sides exist before use.
	other := c.localRank(peer)
	if _, err := r.SendRecv(ctx, c, other, tagPairSync, units.Byte, nil, other, tagPairSync); err != nil {
		return nil, err
	}
	return c, nil
}

// tagPairSync is the reserved tag for PairComm handshakes.
const tagPairSync = 1<<30 - 1

// FlowEndpoint identifies one directed transport flow of a
// communicator, the information an external QoS agent needs
// ("basically port and machine names").
type FlowEndpoint struct {
	SrcNode netsim.Addr
	DstNode netsim.Addr
	SrcPort netsim.Port
	DstPort netsim.Port
}

// Endpoints extracts the directed flow 5-tuples between the calling
// rank and every other member of comm. MPICH-GQ hands these to GARA
// to bind reservations to the actual sockets.
func (r *Rank) Endpoints(comm *Comm) []FlowEndpoint {
	var out []FlowEndpoint
	for _, g := range comm.group {
		if g == r.id {
			continue
		}
		conn := r.conns[g]
		if conn == nil {
			continue
		}
		c := conn.Conn()
		out = append(out, FlowEndpoint{
			SrcNode: c.LocalAddr(),
			DstNode: c.RemoteAddr(),
			SrcPort: c.LocalPort(),
			DstPort: c.RemotePort(),
		})
	}
	return out
}

// Keyval identifies a communicator attribute, as created by
// KeyvalCreate (MPI_Keyval_create).
type Keyval int

type keyvalInfo struct {
	onPut func(r *Rank, c *Comm, val any) error
}

// KeyvalCreate registers an attribute key. onPut, if non-nil, runs
// every time AttrPut stores a value under this key — the hook through
// which "the action of putting the attribute actually triggers the
// request for QoS".
func (j *Job) KeyvalCreate(onPut func(r *Rank, c *Comm, val any) error) Keyval {
	j.nextKV++
	kv := j.nextKV
	j.keyvals[kv] = &keyvalInfo{onPut: onPut}
	return kv
}

// AttrPut stores val under kv on the communicator and fires the
// keyval's trigger. The error (e.g. a failed reservation) is returned
// to the caller; the attribute is stored regardless so AttrGet can
// report status.
func (r *Rank) AttrPut(c *Comm, kv Keyval, val any) error {
	info := r.job.keyvals[kv]
	if info == nil {
		return fmt.Errorf("mpi: unknown keyval %d", kv)
	}
	if c.attrs == nil {
		c.attrs = make(map[Keyval]any)
	}
	c.attrs[kv] = val
	if info.onPut != nil {
		return info.onPut(r, c, val)
	}
	return nil
}

// AttrGet retrieves the value stored under kv (flag false if absent),
// matching MPI_Attr_get's out-parameter style.
func (c *Comm) AttrGet(kv Keyval) (val any, flag bool) {
	val, flag = c.attrs[kv]
	return
}
