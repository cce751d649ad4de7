package netsim

import (
	"errors"
	"fmt"

	"mpichgq/internal/metrics"
	"mpichgq/internal/sim"
)

// NoRouteError reports a packet addressed to a destination the
// sending (or transit) node has no route for.
type NoRouteError struct {
	// Node is the name of the node that had no route.
	Node string
	// Dst is the unreachable destination address.
	Dst Addr
}

func (e *NoRouteError) Error() string {
	return fmt.Sprintf("netsim: node %q has no route to addr %d", e.Node, e.Dst)
}

// ErrEgressDrop reports that the local egress queue rejected the
// packet. Transports treat it like any other loss.
var ErrEgressDrop = errors.New("netsim: egress queue dropped packet")

// Handler receives packets addressed to a node for one transport
// protocol. A TCP stack or UDP demultiplexer registers itself here.
type Handler interface {
	HandlePacket(p *Packet)
}

// Node is a host or router. Hosts originate and sink packets through
// registered protocol handlers; routers forward packets between
// interfaces according to the routing table.
type Node struct {
	net      *Network
	name     string
	addr     Addr
	ifaces   []*Iface
	routes   []*Iface // next hop indexed by Addr (dense from 1); nil or past the end: no route
	handlers map[Proto]Handler
	udp      *UDPStack

	// Stats.

	mNoRoute *metrics.Counter
	rec      *metrics.Recorder
}

// Name returns the node's name.
func (nd *Node) Name() string { return nd.name }

// Addr returns the node's address.
func (nd *Node) Addr() Addr { return nd.addr }

// Network returns the network the node belongs to.
func (nd *Node) Network() *Network { return nd.net }

// Ifaces returns the node's interfaces in creation order.
func (nd *Node) Ifaces() []*Iface { return nd.ifaces }

// Handle registers h as the receiver for packets of protocol proto
// addressed to this node. Registering a second handler for the same
// protocol panics.
func (nd *Node) Handle(proto Proto, h Handler) {
	if _, dup := nd.handlers[proto]; dup {
		panic(fmt.Sprintf("netsim: node %q already has a %v handler", nd.name, proto))
	}
	nd.handlers[proto] = h
}

// Send originates a packet from this node. The packet's Src must be
// the node's own address. Send looks
// up the route and enqueues on the egress interface. It returns a
// *NoRouteError if there is no route, ErrEgressDrop if the egress
// queue rejected the packet, and nil on success.
func (nd *Node) Send(p *Packet) error {
	if p.Src != nd.addr {
		panic(fmt.Sprintf("netsim: node %q sending packet with src %d", nd.name, p.Src))
	}
	return nd.forward(p)
}

// forward routes p out of this node. Used both for locally originated
// packets and for transit traffic.
func (nd *Node) forward(p *Packet) error {
	if p.Dst == nd.addr {
		// Loopback: deliver locally without touching any link.
		nd.net.k.AfterPrioFunc(0, sim.PrioNet, nodeDeliverLocal, nd, p)
		return nil
	}
	out := nd.RouteTo(p.Dst)
	if out == nil {
		nd.mNoRoute.Inc()
		nd.rec.Emit(metrics.EvNoRoute, nd.name, int64(p.Dst), int64(p.Size), 0)
		err := &NoRouteError{Node: nd.name, Dst: p.Dst}
		nd.net.FreePacket(p)
		return err
	}
	if !out.enqueue(p) {
		return ErrEgressDrop
	}
	return nil
}

// nodeDeliverLocal is the prebound loopback-delivery callback.
func nodeDeliverLocal(a0, a1 any) { a0.(*Node).receive(nil, a1.(*Packet)) }

// receive is called when a packet arrives at one of the node's
// interfaces (after the interface's ingress filters have run). The
// packet's ownership passes to the protocol handler, which frees it
// once consumed; with no handler registered the node frees it here.
func (nd *Node) receive(in *Iface, p *Packet) {
	if p.Dst == nd.addr {
		if h := nd.handlers[p.Proto]; h != nil {
			h.HandlePacket(p)
		} else {
			nd.net.FreePacket(p)
		}
		return
	}
	// Transit: drop accounting happens inside forward.
	_ = nd.forward(p)
}

// RouteTo returns the next-hop interface for dst, or nil.
func (nd *Node) RouteTo(dst Addr) *Iface {
	if int(dst) < len(nd.routes) {
		return nd.routes[dst]
	}
	return nil
}

// ComputeRoutes fills every node's routing table with shortest-path
// (hop count) next hops via breadth-first search from each
// destination. Call after the topology is complete; safe to call again
// after changes.
func (n *Network) ComputeRoutes() {
	for _, nd := range n.nodes {
		if grow := int(n.nextAddr) - len(nd.routes); grow > 0 {
			nd.routes = append(nd.routes, make([]*Iface, grow)...)
		}
	}
	for _, dst := range n.nodes {
		// BFS outward from dst; for each reached node, record the
		// interface pointing one hop back toward dst.
		visited := map[*Node]bool{dst: true}
		queue := []*Node{dst}
		for len(queue) > 0 {
			cur := queue[0]
			queue = queue[1:]
			for _, iface := range cur.ifaces {
				peer := iface.peer()
				if peer == nil || !iface.link.Up() || visited[peer.node] {
					continue
				}
				visited[peer.node] = true
				peer.node.routes[dst.addr] = peer
				queue = append(queue, peer.node)
			}
		}
	}
}
