// Package gq is MPICH-GQ's core: the QoS layer that joins the MPI
// attribute mechanism to the GARA reservation architecture.
//
// The flow, following §4 of the paper:
//
//  1. The application creates a communicator targeting the links it
//     cares about (typically a two-party intercommunicator) and calls
//     MPI_Attr_put(comm, MPICH_QOS, &attr) with a QosAttribute —
//     {class, peak bandwidth, max message size} (Figure 3).
//  2. Putting the attribute *triggers* the MPI QoS Agent, which
//     translates the application-level specification into low-level
//     reservations: it extracts the flow endpoints from the
//     communicator's sockets, scales the bandwidth by the TCP protocol
//     overhead (§5.3's ≈1.06 factor, or computed exactly from the max
//     message size), sizes the edge router's token bucket (§4.3), and
//     calls GARA.
//  3. MPI_Attr_get(comm, MPICH_QOS) returns the attribute with its
//     status fields filled in, so the application can see whether the
//     requested QoS is available.
package gq

import (
	"fmt"

	"mpichgq/internal/diffserv"
	"mpichgq/internal/gara"
	"mpichgq/internal/mpi"
	"mpichgq/internal/netsim"
	"mpichgq/internal/units"
)

// QosClass selects the service level for a communicator's traffic.
type QosClass int

// QoS classes from §4.1.
const (
	// BestEffort requests no QoS (and releases any held reservation).
	BestEffort QosClass = iota
	// LowLatency suits small-message traffic such as certain
	// collective operations: a small premium reservation sized for
	// message headers rather than bulk bandwidth.
	LowLatency
	// Premium requests a statistical bandwidth guarantee built on the
	// EF per-hop behavior.
	Premium
)

func (c QosClass) String() string {
	switch c {
	case BestEffort:
		return "best-effort"
	case LowLatency:
		return "low-latency"
	case Premium:
		return "premium"
	default:
		return fmt.Sprintf("class(%d)", int(c))
	}
}

// QosAttribute is the application-level QoS specification attached to
// a communicator — the Go rendering of Figure 3's struct. The agent
// fills the status fields on put.
type QosAttribute struct {
	Class QosClass
	// Bandwidth is the application's peak sending rate (payload
	// bandwidth; the agent adds protocol overhead).
	Bandwidth units.BitRate
	// MaxMessageSize is the largest message the application will
	// send on this communicator. It lets the agent compute protocol
	// overhead exactly and (optionally) size token buckets
	// dynamically.
	MaxMessageSize units.ByteSize

	// Status, filled by the agent on AttrPut.
	Granted bool
	Err     error
}

// LowLatencyBandwidth is the reservation size used for the
// low-latency class.
const LowLatencyBandwidth = 500 * units.Kbps

// Agent is the MPI QoS Agent: it incorporates the rules used to
// translate application-level QoS specifications into the lower-level
// commands and parameters required to implement QoS.
type Agent struct {
	g   *gara.Gara
	job *mpi.Job
	kv  mpi.Keyval

	// OverheadFactor is applied to the requested bandwidth when
	// MaxMessageSize is not given: "we require a reservation value of
	// around 1.06 of the sending rate, because of TCP packet
	// overheads" (§5.3).
	OverheadFactor float64
	// BucketDivisor is the default token-bucket depth rule,
	// depth = reserved bandwidth / BucketDivisor (§4.3's /40).
	BucketDivisor int
	// DynamicBucket, when true, sizes the bucket from
	// MaxMessageSize instead of the fixed divisor — the §5.4
	// "compute the correct token bucket size dynamically" extension.
	DynamicBucket bool

	// bindings tracks live reservations per (world rank, context).
	bindings map[bindingKey]*Binding
}

type bindingKey struct {
	rank int
	ctx  int
}

// Binding is the set of GARA reservations backing one communicator's
// QoS on one rank.
type Binding struct {
	Attr         QosAttribute
	Reservations []*gara.Reservation
}

// NewAgent attaches a QoS agent to an MPI job. It registers the
// MPICH_QOS keyval whose put-trigger performs reservations.
func NewAgent(g *gara.Gara, job *mpi.Job) *Agent {
	a := &Agent{
		g:              g,
		job:            job,
		OverheadFactor: 1.06,
		BucketDivisor:  diffserv.NormalBucketDivisor,
		bindings:       make(map[bindingKey]*Binding),
	}
	a.kv = job.KeyvalCreate("MPICH_QOS", a.onPut)
	return a
}

// Keyval returns the MPICH_QOS attribute key applications put their
// QosAttribute under.
func (a *Agent) Keyval() mpi.Keyval { return a.kv }

// onPut is the attribute trigger: translate and reserve.
func (a *Agent) onPut(r *mpi.Rank, c *mpi.Comm, val any) error {
	attr, ok := val.(*QosAttribute)
	if !ok {
		return fmt.Errorf("gq: MPICH_QOS attribute must be *gq.QosAttribute, got %T", val)
	}
	err := a.Apply(r, c, attr)
	attr.Err = err
	attr.Granted = err == nil && attr.Class != BestEffort
	return err
}

// Apply performs (or releases) the reservations for attr on c, as seen
// from rank r. It is exported so an external QoS agent can drive the
// same rules without going through attributes.
func (a *Agent) Apply(r *mpi.Rank, c *mpi.Comm, attr *QosAttribute) error {
	key := bindingKey{rank: r.ID(), ctx: c.Context()}
	switch attr.Class {
	case BestEffort:
		a.release(key)
		return nil
	case Premium, LowLatency:
		// Re-putting with an existing binding modifies in place.
		if b := a.bindings[key]; b != nil {
			return a.modify(b, r, c, attr)
		}
		return a.install(key, r, c, attr)
	default:
		return fmt.Errorf("gq: unknown QoS class %v", attr.Class)
	}
}

// ReservedRate returns the network reservation the agent will request
// for attr: the application bandwidth scaled by protocol overhead.
func (a *Agent) ReservedRate(attr *QosAttribute) units.BitRate {
	bw := attr.Bandwidth
	if attr.Class == LowLatency {
		if bw < LowLatencyBandwidth {
			bw = LowLatencyBandwidth
		}
	}
	return units.BitRate(float64(bw) * a.overheadFor(attr))
}

// overheadFor computes the wire/payload ratio. With a max message
// size the exact per-message overhead (64-byte MPI envelope plus one
// 40-byte TCP/IP header per MSS) is used; otherwise the measured 1.06
// default.
func (a *Agent) overheadFor(attr *QosAttribute) float64 {
	if attr.MaxMessageSize <= 0 {
		return a.OverheadFactor
	}
	const mss = 1460
	const tcpip = 40
	const envelope = 64
	payload := float64(attr.MaxMessageSize)
	segments := float64((attr.MaxMessageSize + envelope + mss - 1) / mss)
	wire := payload + envelope + segments*tcpip
	f := wire / payload
	if f < 1.02 {
		f = 1.02
	}
	return f
}

// bucketDepth sizes the edge token bucket for a reservation.
func (a *Agent) bucketDepth(attr *QosAttribute, reserved units.BitRate) units.ByteSize {
	if a.DynamicBucket && attr.MaxMessageSize > 0 {
		// Dynamic rule: admit one full message burst (with protocol
		// overhead) at once, but never less than the static rule.
		burst := units.ByteSize(float64(attr.MaxMessageSize) * a.overheadFor(attr))
		static := diffserv.DepthForRate(reserved, a.BucketDivisor)
		if burst > static {
			return burst
		}
		return static
	}
	return diffserv.DepthForRate(reserved, a.BucketDivisor)
}

// flowSpecs builds the GARA network specs for rank r's flows on c.
func (a *Agent) flowSpecs(r *mpi.Rank, c *mpi.Comm, attr *QosAttribute) []gara.Spec {
	reserved := a.ReservedRate(attr)
	depth := a.bucketDepth(attr, reserved)
	var specs []gara.Spec
	for _, ep := range r.Endpoints(c) {
		fwd := netsim.FlowKey{
			Src: ep.SrcNode, Dst: ep.DstNode,
			SrcPort: ep.SrcPort, DstPort: ep.DstPort,
			Proto: netsim.ProtoTCP,
		}
		specs = append(specs, gara.Spec{
			Type:        gara.ResourceNetwork,
			Flow:        diffserv.MatchFlow(fwd),
			Bandwidth:   reserved,
			BucketDepth: depth,
		})
	}
	return specs
}

func (a *Agent) install(key bindingKey, r *mpi.Rank, c *mpi.Comm, attr *QosAttribute) error {
	specs := a.flowSpecs(r, c, attr)
	if len(specs) == 0 {
		return fmt.Errorf("gq: communicator has no remote flows to reserve")
	}
	rs, err := a.g.CoReserve(specs...)
	if err != nil {
		return err
	}
	a.bindings[key] = &Binding{Attr: *attr, Reservations: rs}
	return nil
}

func (a *Agent) modify(b *Binding, r *mpi.Rank, c *mpi.Comm, attr *QosAttribute) error {
	specs := a.flowSpecs(r, c, attr)
	if len(specs) != len(b.Reservations) {
		// Topology changed under us; rebuild.
		a.release(bindingKey{rank: r.ID(), ctx: c.Context()})
		return a.install(bindingKey{rank: r.ID(), ctx: c.Context()}, r, c, attr)
	}
	for i, res := range b.Reservations {
		if err := res.Modify(specs[i]); err != nil {
			return err
		}
	}
	b.Attr = *attr
	return nil
}

func (a *Agent) release(key bindingKey) {
	if b := a.bindings[key]; b != nil {
		for _, res := range b.Reservations {
			res.Cancel()
		}
		delete(a.bindings, key)
	}
}

// Binding returns the live binding for rank r on communicator c, if
// any (monitoring hook).
func (a *Agent) Binding(r *mpi.Rank, c *mpi.Comm) (*Binding, bool) {
	b, ok := a.bindings[bindingKey{rank: r.ID(), ctx: c.Context()}]
	return b, ok
}

// ReleaseAll cancels every reservation the agent holds (job
// teardown).
func (a *Agent) ReleaseAll() {
	for key := range a.bindings {
		a.release(key)
	}
}

// ReserveCPU requests a DSRT CPU reservation for rank r through the
// same GARA instance — the §5.5 combined network+CPU scenario.
func (a *Agent) ReserveCPU(r *mpi.Rank, fraction float64) (*gara.Reservation, error) {
	return a.g.Reserve(gara.Spec{
		Type:     gara.ResourceCPU,
		Task:     r.Task(),
		Fraction: fraction,
	})
}
