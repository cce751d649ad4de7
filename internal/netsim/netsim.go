// Package netsim is a packet-level network simulator: hosts and routers
// joined by point-to-point links with finite bandwidth, propagation
// delay, and finite queues.
//
// It deliberately models the pieces of an IP network that matter for
// the MPICH-GQ experiments: per-packet serialization at link rate,
// drop-tail queueing, static shortest-path routing, and pluggable
// per-interface ingress filters and egress queues. Differentiated
// Services behaviour (classification, token-bucket policing, priority
// queueing) plugs in through those two extension points; see package
// diffserv.
package netsim

import (
	"fmt"

	"mpichgq/internal/sim"
	"mpichgq/internal/units"
)

// Addr identifies a node. Addresses are assigned sequentially starting
// at 1 as nodes are added to a Network.
type Addr uint32

// Port identifies a transport endpoint within a node.
type Port uint16

// Proto is a transport protocol number.
type Proto uint8

// Transport protocol numbers (matching IP protocol numbers for
// familiarity).
const (
	ProtoTCP Proto = 6
	ProtoUDP Proto = 17
)

func (p Proto) String() string {
	switch p {
	case ProtoTCP:
		return "tcp"
	case ProtoUDP:
		return "udp"
	default:
		return fmt.Sprintf("proto(%d)", uint8(p))
	}
}

// DSCP is the Differentiated Services code point carried in a packet
// header.
type DSCP uint8

// Code points used by the reproduction.
const (
	// DSCPBestEffort is the default (no QoS) code point.
	DSCPBestEffort DSCP = 0
	// DSCPEF is Expedited Forwarding: packets in the expedited queue
	// are sent before any others (RFC 2598).
	DSCPEF DSCP = 46
)

func (d DSCP) String() string {
	switch d {
	case DSCPBestEffort:
		return "BE"
	case DSCPEF:
		return "EF"
	default:
		return fmt.Sprintf("dscp(%d)", uint8(d))
	}
}

// Header overheads added by transports to on-wire packet sizes.
const (
	// IPHeader is the IPv4 header size without options.
	IPHeader = 20 * units.Byte
	// TCPHeader is the TCP header size without options.
	TCPHeader = 20 * units.Byte
	// UDPHeader is the UDP header size.
	UDPHeader = 8 * units.Byte
)

// Packet is a simulated IP packet.
type Packet struct {
	Src     Addr
	Dst     Addr
	SrcPort Port
	DstPort Port
	Proto   Proto
	DSCP    DSCP
	// Size is the on-wire size including transport and IP headers.
	Size units.ByteSize
	// PayloadLen is the transport payload length in bytes.
	PayloadLen units.ByteSize
	// Payload carries transport-specific data (e.g. a TCP segment).
	Payload any
}

// FlowKey identifies a unidirectional transport flow (the classic
// 5-tuple).
type FlowKey struct {
	Src     Addr
	Dst     Addr
	SrcPort Port
	DstPort Port
	Proto   Proto
}

// Key returns the packet's flow 5-tuple.
func (p *Packet) Key() FlowKey {
	return FlowKey{Src: p.Src, Dst: p.Dst, SrcPort: p.SrcPort, DstPort: p.DstPort, Proto: p.Proto}
}

func (k FlowKey) String() string {
	return fmt.Sprintf("%v %d:%d->%d:%d", k.Proto, k.Src, k.SrcPort, k.Dst, k.DstPort)
}

// Network is a collection of nodes and links sharing one simulation
// kernel.
type Network struct {
	k        *sim.Kernel
	nodes    []*Node
	byName   map[string]*Node
	links    []*Link
	nextAddr Addr

	autoReroute   bool
	topoObservers []func()

	// Fluid background state; see fluid.go.
	fluidFlows  []*FluidFlow
	fluidIfaces []*Iface
	fluidGen    uint64
	nextFluid   uint64
	// fluidComps is walkFluid's scratch for a flow's components.
	fluidComps []FluidComponent

	// pktFree is the packet freelist; see AllocPacket.
	pktFree []*Packet
}

// New returns an empty network on kernel k.
func New(k *sim.Kernel) *Network {
	return &Network{k: k, byName: make(map[string]*Node), nextAddr: 1}
}

// Kernel returns the simulation kernel.
func (n *Network) Kernel() *sim.Kernel { return n.k }

// AddNode creates a node with the given name. Node names must be
// unique within the network.
func (n *Network) AddNode(name string) *Node {
	if _, dup := n.byName[name]; dup {
		panic(fmt.Sprintf("netsim: duplicate node name %q", name))
	}
	reg := n.k.Metrics()
	node := &Node{
		net:      n,
		name:     name,
		addr:     n.nextAddr,
		handlers: make(map[Proto]Handler),
		mNoRoute: reg.Counter("netsim_no_route_drops_total",
			"packets dropped for lack of a route", "node", name),
		rec: reg.Events(),
	}
	n.nextAddr++
	n.nodes = append(n.nodes, node)
	n.byName[name] = node
	return node
}

// Nodes returns all nodes in creation order.
func (n *Network) Nodes() []*Node { return n.nodes }

// Links returns all links in creation order.
func (n *Network) Links() []*Link { return n.links }

// Link returns the link with the given name ("n1-n2"), or nil.
func (n *Network) Link(name string) *Link {
	for _, l := range n.links {
		if l.name == name {
			return l
		}
	}
	return nil
}

// SetAutoReroute controls whether link state transitions trigger an
// automatic RecomputeRoutes. Off by default: without a backup path a
// recompute cannot help, and static routing keeps healthy-run results
// byte-identical to earlier versions.
func (n *Network) SetAutoReroute(on bool) { n.autoReroute = on }

// OnTopologyChange registers f to run after every link state change
// (and after RecomputeRoutes, if auto-reroute is enabled). Resource
// managers use this to re-validate reserved paths.
func (n *Network) OnTopologyChange(f func()) {
	n.topoObservers = append(n.topoObservers, f)
}

// RecomputeRoutes clears every routing table and rebuilds it from the
// current topology, skipping down links, then notifies topology
// observers.
func (n *Network) RecomputeRoutes() {
	for _, nd := range n.nodes {
		clear(nd.routes)
	}
	n.ComputeRoutes()
	n.notifyTopology()
}

// linkStateChanged is called by Link.SetUp after a transition.
func (n *Network) linkStateChanged(_ *Link) {
	if n.autoReroute {
		n.RecomputeRoutes() // notifies observers itself
		return
	}
	n.notifyTopology()
}

func (n *Network) notifyTopology() {
	// Fluid rates first: flows must re-resolve their paths (a down
	// link, a reroute) before observers re-validate reservations over
	// the new state.
	n.refreshFluid()
	for _, f := range n.topoObservers {
		f()
	}
}

// AllocPacket returns a zeroed Packet from the network's freelist, or
// a fresh one if the freelist is empty. Paired with FreePacket it
// keeps steady-state packet traffic allocation-free; see
// docs/performance.md for the ownership rules.
func (n *Network) AllocPacket() *Packet {
	if l := len(n.pktFree); l > 0 {
		p := n.pktFree[l-1]
		n.pktFree[l-1] = nil
		n.pktFree = n.pktFree[:l-1]
		return p
	}
	return &Packet{}
}

// FreePacket resets p and returns it to the freelist. Freeing is
// optional — an unfreed packet is simply garbage-collected — but a
// packet must be freed at most once, by its current owner. The
// network owns packets in flight and frees them at its drop points
// (egress reject, down-drop, ingress drop, no-route, transit loss);
// a protocol handler owns a delivered packet and frees it after
// consuming it. External handlers that retain a packet must simply
// not free it.
func (n *Network) FreePacket(p *Packet) {
	*p = Packet{}
	n.pktFree = append(n.pktFree, p)
}
