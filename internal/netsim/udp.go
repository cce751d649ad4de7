package netsim

import (
	"errors"
	"fmt"

	"mpichgq/internal/sim"
	"mpichgq/internal/units"
)

// Datagram is a received UDP message.
type Datagram struct {
	From     Addr
	FromPort Port
	Len      units.ByteSize
	DSCP     DSCP
	Payload  any
}

// UDPStack demultiplexes UDP packets to sockets on one node.
type UDPStack struct {
	node     *Node
	sockets  map[Port]*UDPSocket
	nextPort Port

	rxDrops uint64 // datagrams for ports with no socket
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
	if sock == nil || sock.closed {
		s.rxDrops++
		s.node.net.FreePacket(p)
		return
	}
	sock.deliver(Datagram{
		From:     p.Src,
		FromPort: p.SrcPort,
		Len:      p.PayloadLen,
		DSCP:     p.DSCP,
		Payload:  p.Payload,
	})
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
	sock := &UDPSocket{
		stack: s,
		port:  port,
		recv:  sim.NewCond(s.node.net.k),
	}
	s.sockets[port] = sock
	return sock, nil
}

// RxDrops returns the number of datagrams dropped for lack of a bound
// socket.
func (s *UDPStack) RxDrops() uint64 { return s.rxDrops }

// ErrClosed is returned by operations on a closed socket.
var ErrClosed = errors.New("netsim: socket closed")

// UDPSocket is a bound UDP endpoint. Received datagrams wait in the
// socket until a process takes them with Recv or TryRecv, or a
// callback installed with Serve is handed them.
type UDPSocket struct {
	stack *UDPStack
	port  Port
	// inbox[head:] are the received datagrams, oldest first, held by
	// value. Taking one advances head, and a full backing array with
	// consumed slots at its head is compacted in place rather than
	// grown, as in sim.Cond's queue.
	inbox []Datagram
	head  int
	// recv holds the processes blocked in Recv.
	recv *sim.Cond
	// serve is the receiver installed by Serve, nil when there is
	// none; serveIdle is set while it waits for a datagram with no
	// wakeup pending.
	serve     func(Datagram)
	serveIdle bool
	dscp      DSCP
	closed    bool

	txDatagrams uint64
	txBytes     int64
}

// Port returns the bound local port.
func (u *UDPSocket) Port() Port { return u.port }

// SetDSCP sets the DS code point stamped on outgoing datagrams.
// (Applications normally leave this at best-effort and let the edge
// router classify and mark; setting it directly models a
// "pre-marking" host.)
func (u *UDPSocket) SetDSCP(d DSCP) { u.dscp = d }

// SendTo transmits a datagram of payloadLen bytes to (dst, dstPort).
// It reports false if the datagram was dropped before leaving the
// node — like real UDP, later drops are silent. A local egress-queue
// drop is ordinary loss (false, nil); an unroutable destination also
// surfaces the *NoRouteError, like a host ENETUNREACH. payload rides
// along for the receiver and may be nil.
func (u *UDPSocket) SendTo(dst Addr, dstPort Port, payloadLen units.ByteSize, payload any) (bool, error) {
	if u.closed {
		return false, ErrClosed
	}
	if payloadLen < 0 {
		return false, fmt.Errorf("netsim: negative datagram length %d", payloadLen)
	}
	p := u.stack.node.net.AllocPacket()
	p.Src = u.stack.node.addr
	p.Dst = dst
	p.SrcPort = u.port
	p.DstPort = dstPort
	p.Proto = ProtoUDP
	p.DSCP = u.dscp
	p.Size = payloadLen + UDPHeader + IPHeader
	p.PayloadLen = payloadLen
	p.Payload = payload
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
	u.txDatagrams++
	u.txBytes += int64(payloadLen)
	return true, nil
}

// deliver queues a received datagram and wakes the receiver: the
// longest-blocked Recv, or the Serve callback if it is idle.
func (u *UDPSocket) deliver(dg Datagram) {
	if u.head > 0 && len(u.inbox) == cap(u.inbox) {
		n := copy(u.inbox, u.inbox[u.head:])
		clear(u.inbox[n:])
		u.inbox = u.inbox[:n]
		u.head = 0
	}
	u.inbox = append(u.inbox, dg)
	u.recv.Signal()
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

// Recv blocks until a datagram arrives or the socket is closed and
// drained.
func (u *UDPSocket) Recv(ctx *sim.Ctx) (Datagram, error) {
	for u.Pending() == 0 {
		if u.closed {
			return Datagram{}, ErrClosed
		}
		u.recv.Wait(ctx)
	}
	return u.take(), nil
}

// TryRecv returns a queued datagram without blocking.
func (u *UDPSocket) TryRecv() (Datagram, bool) {
	if u.Pending() == 0 {
		return Datagram{}, false
	}
	return u.take(), true
}

// Pending returns the number of queued datagrams.
func (u *UDPSocket) Pending() int { return len(u.inbox) - u.head }

// Serve hands every datagram the socket receives to fn, in arrival
// order, until the socket is closed; no other receiver may use the
// socket. It stands in for a process that loops on Recv and wakes
// exactly as that process would: one event at the current instant
// now; one at the current instant and PrioNormal when a datagram
// arrives while fn is idle, which hands fn every datagram queued by
// the time it runs; none for arrivals while a wakeup is pending; and a
// last one if the socket is closed while fn is idle. So replacing such
// a process with Serve changes no event's time, priority or order, nor
// the kernel's event count.
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
// queue into the callback, then idles, or ends once the socket is
// closed.
func udpServe(a0, _ any) {
	u := a0.(*UDPSocket)
	for u.Pending() > 0 {
		u.serve(u.take())
	}
	if u.closed {
		u.serve = nil
		return
	}
	u.serveIdle = true
}

// Close releases the port and wakes blocked receivers.
func (u *UDPSocket) Close() {
	if u.closed {
		return
	}
	u.closed = true
	delete(u.stack.sockets, u.port)
	u.recv.Broadcast()
	u.wakeServer()
}

// TxStats returns the count and total payload bytes of datagrams
// accepted by the local node.
func (u *UDPSocket) TxStats() (datagrams uint64, bytes int64) {
	return u.txDatagrams, u.txBytes
}
