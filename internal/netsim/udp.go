package netsim

import (
	"fmt"

	"mpichgq/internal/sim"
	"mpichgq/internal/units"
)

// Datagram is a received UDP message.
type Datagram struct {
	Len units.ByteSize
}

// UDPStack demultiplexes UDP packets to sockets on one node.
type UDPStack struct {
	node     *Node
	sockets  map[Port]*UDPSocket
	nextPort Port
}

// NewUDPStack creates the UDP stack for node nd and registers it as
// the node's UDP handler.
func NewUDPStack(nd *Node) *UDPStack {
	s := &UDPStack{node: nd, sockets: make(map[Port]*UDPSocket), nextPort: 30000}
	nd.Handle(ProtoUDP, s)
	nd.udp = s
	return s
}

// UDPStack returns the node's UDP stack, creating and registering it
// on first use.
func (nd *Node) UDPStack() *UDPStack {
	if nd.udp == nil {
		NewUDPStack(nd)
	}
	return nd.udp
}

// HandlePacket implements Handler.
func (s *UDPStack) HandlePacket(p *Packet) {
	sock := s.sockets[p.DstPort]
	if sock == nil {
		s.node.net.FreePacket(p)
		return
	}
	sock.deliver(Datagram{Len: p.PayloadLen})
	s.node.net.FreePacket(p)
}

// Bind opens a socket on the given port; port 0 picks an ephemeral
// port.
func (s *UDPStack) Bind(port Port) (*UDPSocket, error) {
	if port == 0 {
		for s.sockets[s.nextPort] != nil {
			s.nextPort++
		}
		port = s.nextPort
		s.nextPort++
	} else if s.sockets[port] != nil {
		return nil, fmt.Errorf("netsim: udp port %d on %q in use", port, s.node.name)
	}
	sock := &UDPSocket{stack: s, port: port}
	s.sockets[port] = sock
	return sock, nil
}

// UDPSocket is a bound UDP endpoint. Received datagrams wait in the
// socket until the callback installed with Serve is handed them.
type UDPSocket struct {
	stack *UDPStack
	port  Port
	// inbox[head:] are the received datagrams, oldest first, held by
	// value. Taking one advances head, and a full backing array with
	// consumed slots at its head is compacted in place rather than
	// grown, as in sim.Cond's queue.
	inbox []Datagram
	head  int
	// serve is the receiver installed by Serve, nil when there is
	// none; serveIdle is set while it waits for a datagram with no
	// wakeup pending.
	serve     func(Datagram)
	serveIdle bool
}

// SendTo transmits a best-effort datagram of payloadLen bytes to
// (dst, dstPort). It reports false if the datagram was dropped before
// leaving the node — like real UDP, later drops are silent. A local
// egress-queue drop is ordinary loss (false, nil); an unroutable
// destination also surfaces the *NoRouteError, like a host
// ENETUNREACH.
func (u *UDPSocket) SendTo(dst Addr, dstPort Port, payloadLen units.ByteSize) (bool, error) {
	if payloadLen < 0 {
		return false, fmt.Errorf("netsim: negative datagram length %d", payloadLen)
	}
	p := u.stack.node.net.AllocPacket()
	p.Src = u.stack.node.addr
	p.Dst = dst
	p.SrcPort = u.port
	p.DstPort = dstPort
	p.Proto = ProtoUDP
	p.Size = payloadLen + UDPHeader + IPHeader
	p.PayloadLen = payloadLen
	err := u.stack.node.Send(p)
	if noRoute, ok := err.(*NoRouteError); ok {
		// Node.Send returns the error unwrapped; a type assertion,
		// unlike errors.As, does not move a pointer to the heap per
		// datagram.
		return false, noRoute
	}
	if err != nil {
		return false, nil // egress drop: silent loss, as on the wire
	}
	return true, nil
}

// deliver queues a received datagram and wakes the Serve callback if
// it is idle.
func (u *UDPSocket) deliver(dg Datagram) {
	if u.head > 0 && len(u.inbox) == cap(u.inbox) {
		n := copy(u.inbox, u.inbox[u.head:])
		clear(u.inbox[n:])
		u.inbox = u.inbox[:n]
		u.head = 0
	}
	u.inbox = append(u.inbox, dg)
	u.wakeServer()
}

// take pops the oldest queued datagram; the queue must not be empty.
func (u *UDPSocket) take() Datagram {
	dg := u.inbox[u.head]
	u.inbox[u.head] = Datagram{}
	u.head++
	if u.head == len(u.inbox) {
		u.inbox, u.head = u.inbox[:0], 0
	}
	return dg
}

// Pending returns the number of queued datagrams.
func (u *UDPSocket) Pending() int { return len(u.inbox) - u.head }

// Serve hands every datagram the socket receives to fn, in arrival
// order. It schedules one event at the current instant now, and one at
// the current instant and PrioNormal when a datagram arrives while fn
// is idle, which hands fn every datagram queued by the time it runs;
// arrivals while a wakeup is pending schedule nothing.
func (u *UDPSocket) Serve(fn func(Datagram)) {
	if u.serve != nil {
		panic("netsim: Serve on a socket that is already served")
	}
	u.serve = fn
	k := u.stack.node.net.k
	k.AtFunc(k.Now(), sim.PrioNormal, udpServe, u, nil)
}

// wakeServer schedules the Serve callback's wakeup if it is idle.
func (u *UDPSocket) wakeServer() {
	if !u.serveIdle {
		return
	}
	u.serveIdle = false
	k := u.stack.node.net.k
	k.AtFunc(k.Now(), sim.PrioNormal, udpServe, u, nil)
}

// udpServe is the prebound wakeup of a served socket: it drains the
// queue into the callback, then idles.
func udpServe(a0, _ any) {
	u := a0.(*UDPSocket)
	for u.Pending() > 0 {
		u.serve(u.take())
	}
	u.serveIdle = true
}
