// Package garnet builds the Globus Advance Reservation Network
// Testbed of §5.1/Figure 4: premium and competitive source/destination
// hosts around three Cisco-7507-class routers, with EF priority
// queueing on every router port and a GARA instance (DS network
// manager, DSRT CPU manager, DPSS storage manager) managing the
// domain.
//
//	premSrc ─┐                        ┌─ premDst
//	         edge1 ── core ── edge2 ──┤
//	compSrc ─┘                        └─ compDst
//
// Within GARNET the routers are connected by OC3 ATM (155 Mb/s); end
// systems attach by switched Fast Ethernet or OC3. Link delays are
// sized so the end-to-end delay is "on the order of a millisecond or
// two", matching the bandwidth×delay bucket arithmetic of §4.3.
package garnet

import (
	"fmt"
	"time"

	"mpichgq/internal/diffserv"
	"mpichgq/internal/gara"
	"mpichgq/internal/mpi"
	"mpichgq/internal/netsim"
	"mpichgq/internal/sim"
	"mpichgq/internal/tcpsim"
	"mpichgq/internal/units"
)

// Fixed testbed parameters.
const (
	// linkRate is the router-to-router (OC3) rate.
	linkRate = 155 * units.Mbps
	// hopDelay is the one-way delay per link, giving a ~2 ms round
	// trip across the testbed.
	hopDelay = 250 * time.Microsecond
	// backupRate is the bottleneck standby path's capacity. Site backup
	// paths use a quarter of their own WAN rate.
	backupRate = linkRate / 4
)

// Options configure the testbed build.
type Options struct {
	// AccessRate is the host-to-edge rate. Default 155 Mb/s (OC3
	// attachment, so a single competitive host can overwhelm the
	// core path like the paper's UDP generator).
	AccessRate units.BitRate
	// EFFraction caps EF reservations per link. Default 0.7.
	EFFraction float64
	// Seed for the simulation kernel. Default 1.
	Seed int64
	// BackupPaths adds a lower-capacity standby path around the
	// edge1-core bottleneck (via a "backup" router), gives every
	// AddSite a second WAN path, and enables automatic re-routing so
	// traffic fails over when a primary link goes down. Off by
	// default: the paper's testbed is single-homed, and static routing
	// keeps healthy-run results byte-identical.
	BackupPaths bool
}

func (o Options) withDefaults() Options {
	if o.AccessRate == 0 {
		o.AccessRate = 155 * units.Mbps
	}
	if o.EFFraction == 0 {
		o.EFFraction = 0.7
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// Testbed is a built GARNET instance.
type Testbed struct {
	K   *sim.Kernel
	Net *netsim.Network

	PremSrc, PremDst   *netsim.Node
	CompSrc, CompDst   *netsim.Node
	Edge1, Core, Edge2 *netsim.Node
	// Backup is the standby router parallel to the bottleneck; nil
	// unless Options.BackupPaths.
	Backup *netsim.Node

	// Bottleneck is the edge1-core link every cross-testbed flow
	// shares.
	Bottleneck *netsim.Link

	Domain *diffserv.Domain
	Gara   *gara.Gara
	NetRM  *gara.NetworkRM
	CPURM  *gara.CPURM

	opts Options
}

// New builds the testbed with defaults.
func New(seed int64) *Testbed {
	return NewWithOptions(Options{Seed: seed})
}

// NewWithOptions builds the testbed.
func NewWithOptions(o Options) *Testbed {
	o = o.withDefaults()
	k := sim.New(o.Seed)
	n := netsim.New(k)
	tb := &Testbed{K: k, Net: n, opts: o}

	tb.PremSrc = n.AddNode("prem-src")
	tb.CompSrc = n.AddNode("comp-src")
	tb.PremDst = n.AddNode("prem-dst")
	tb.CompDst = n.AddNode("comp-dst")
	tb.Edge1 = n.AddNode("edge1")
	tb.Core = n.AddNode("core")
	tb.Edge2 = n.AddNode("edge2")

	n.Connect(tb.PremSrc, tb.Edge1, o.AccessRate, hopDelay)
	n.Connect(tb.CompSrc, tb.Edge1, o.AccessRate, hopDelay)
	tb.Bottleneck = n.Connect(tb.Edge1, tb.Core, linkRate, hopDelay)
	n.Connect(tb.Core, tb.Edge2, linkRate, hopDelay)
	n.Connect(tb.Edge2, tb.PremDst, o.AccessRate, hopDelay)
	n.Connect(tb.Edge2, tb.CompDst, o.AccessRate, hopDelay)
	if o.BackupPaths {
		// Standby path around the bottleneck. Connected after the
		// primary links and one hop longer, so shortest-path routing
		// only chooses it when the bottleneck is down.
		tb.Backup = n.AddNode("backup")
		n.Connect(tb.Edge1, tb.Backup, backupRate, hopDelay)
		n.Connect(tb.Backup, tb.Core, backupRate, hopDelay)
		n.SetAutoReroute(true)
	}
	n.ComputeRoutes()

	tb.Domain = diffserv.NewDomain(k)
	tb.Domain.EnableEFAll(tb.Edge1, tb.Core, tb.Edge2)
	if tb.Backup != nil {
		tb.Domain.EnableEFAll(tb.Backup)
	}

	tb.Gara = gara.New(k)
	tb.NetRM = gara.NewNetworkRM(n, tb.Domain, o.EFFraction)
	tb.CPURM = gara.NewCPURM()
	tb.Gara.Register(tb.NetRM)
	tb.Gara.Register(tb.CPURM)
	tb.Gara.Register(gara.NewStorageRM())
	return tb
}

// Options returns the options the testbed was built with.
func (tb *Testbed) Options() Options { return tb.opts }

// Close ends the testbed's simulation: see sim.Kernel.Close. Call it
// once every result has been read off the testbed.
func (tb *Testbed) Close() { tb.K.Close() }

// AddSite attaches a remote site (an extra edge router plus host) to
// the core over a constrained wide-area link, like GARNET's ESnet and
// MREN attachments.
func (tb *Testbed) AddSite(name string, wanRate units.BitRate, wanDelay time.Duration) *netsim.Node {
	edge := tb.Net.AddNode(name + "-edge")
	host := tb.Net.AddNode(name + "-host")
	tb.Net.Connect(tb.Core, edge, wanRate, wanDelay)
	tb.Net.Connect(edge, host, tb.opts.AccessRate, hopDelay)
	if tb.opts.BackupPaths {
		// Second WAN path at a quarter of the primary's capacity,
		// one hop longer so it only carries traffic during failover.
		bak := tb.Net.AddNode(name + "-bak")
		tb.Net.Connect(tb.Core, bak, wanRate/4, wanDelay)
		tb.Net.Connect(bak, edge, wanRate/4, wanDelay)
		tb.Domain.EnableEFAll(bak)
		// The failover variant must enforce reservations along the
		// whole protected path, so the core's new WAN-facing ports
		// (toward this site's edge and backup routers) get priority
		// queues too. EnableEF is idempotent for the ports that
		// already have them. The single-homed testbed keeps the
		// paper's plain-FIFO core ports.
		tb.Domain.EnableEFAll(tb.Core)
	}
	tb.Net.ComputeRoutes()
	tb.Domain.EnableEFAll(edge)
	return host
}

// NewMPIPair builds a two-rank MPI job: rank 0 on the premium source,
// rank 1 on the premium destination.
func (tb *Testbed) NewMPIPair(tcpOpts tcpsim.Options, jobOpts mpi.JobOptions) *mpi.Job {
	h0 := mpi.NewHost(tb.PremSrc, tcpOpts)
	h1 := mpi.NewHost(tb.PremDst, tcpOpts)
	return mpi.NewJob(tb.K, []*mpi.Host{h0, h1}, jobOpts)
}

// NewMPIJob builds an MPI job over explicit nodes (one rank per node
// entry). A node appearing several times co-locates ranks on one
// host: they share its TCP stack and CPU.
func (tb *Testbed) NewMPIJob(nodes []*netsim.Node, tcpOpts tcpsim.Options, jobOpts mpi.JobOptions) *mpi.Job {
	byNode := make(map[*netsim.Node]*mpi.Host)
	hosts := make([]*mpi.Host, len(nodes))
	for i, nd := range nodes {
		h := byNode[nd]
		if h == nil {
			h = mpi.NewHost(nd, tcpOpts)
			byNode[nd] = h
		}
		hosts[i] = h
	}
	return mpi.NewJob(tb.K, hosts, jobOpts)
}

// Topology renders the testbed's nodes and links for cmd/garnet
// -topology.
func (tb *Testbed) Topology() string {
	s := "GARNET testbed topology:\n"
	for _, l := range tb.Net.Links() {
		s += fmt.Sprintf("  %-20s %8s  %v one-way\n", l.Name(), l.Rate(), l.Delay())
	}
	return s
}
