// Package tcpsim implements a TCP transport (NewReno congestion
// control, RFC 2582) over the netsim packet network.
//
// The paper's central difficulty is TCP's reaction to token-bucket
// policing: "TCP kicks into slow start mode and starts sending more
// slowly, gradually building up its send rate until packets are
// dropped again" (§3). Reproducing Figures 1, 5, and 6 therefore
// requires a faithful congestion-control implementation: slow start,
// congestion avoidance, fast retransmit/fast recovery, retransmission
// timeouts with exponential backoff, and Jacobson/Karn RTT estimation.
//
// Data is modelled as byte counts, not buffers: Write(n) injects n
// bytes of stream, Read returns byte counts. Applications that need to
// move structured messages (the MPI library) attach *markers* to
// stream positions with WriteMsg/ReadMsg; markers ride inside segments
// and are delivered exactly once, in stream order, when the receiver
// has consumed the stream past them.
package tcpsim

import (
	"errors"
	"fmt"
	"time"

	"mpichgq/internal/metrics"
	"mpichgq/internal/netsim"
	"mpichgq/internal/sim"
	"mpichgq/internal/units"
)

// Errors returned by connection operations.
var (
	ErrClosed       = errors.New("tcpsim: connection closed")
	ErrReset        = errors.New("tcpsim: connection reset by peer")
	ErrRefused      = errors.New("tcpsim: connection refused")
	ErrTimeout      = errors.New("tcpsim: connection timed out")
	ErrPortInUse    = errors.New("tcpsim: port in use")
	ErrListenClosed = errors.New("tcpsim: listener closed")
)

// Fixed connection parameters.
const (
	// mss is the maximum segment (payload) size.
	mss units.ByteSize = 1460
	// initialCwndSegs is the initial congestion window in segments
	// (RFC 2581).
	initialCwndSegs = 2
	// maxRTO caps the retransmission timer.
	maxRTO = 60 * time.Second
	// synRetries is the number of SYN (re)transmissions before Dial
	// fails with ErrTimeout.
	synRetries = 5
)

// Options configure a stack's default connection parameters.
// Individual connections can override buffers after creation.
type Options struct {
	// SndBuf is the send socket buffer size. Default 64 KB. The
	// paper's §5.5 anecdote used 8 KB before tuning.
	SndBuf units.ByteSize
	// RcvBuf is the receive socket buffer size. Default 64 KB.
	RcvBuf units.ByteSize
	// MinRTO is the retransmission timer's floor; InitialRTO its value
	// before the first RTT sample. Defaults 200 ms / 1 s.
	MinRTO, InitialRTO time.Duration
	// DelayedAck enables a 40 ms delayed-ACK timer with
	// ack-every-other-segment. Default false (immediate ACKs).
	DelayedAck bool
	// DisableCWV turns off congestion-window validation (RFC 2861):
	// with CWV on (default), cwnd only grows while the window is
	// actually being filled, so app-limited flows do not accumulate
	// a huge cwnd and then dump line-rate bursts into policers.
	DisableCWV bool
	// DisableSSR turns off slow-start restart after idle: with SSR
	// on (default), a connection idle for longer than its RTO
	// collapses cwnd back to the initial window, as 2000-era stacks
	// did. This is a large part of why very bursty (1 fps) flows
	// need bigger reservations (§5.4).
	DisableSSR bool
}

func (o Options) withDefaults() Options {
	if o.SndBuf == 0 {
		o.SndBuf = 64 * units.KB
	}
	if o.RcvBuf == 0 {
		o.RcvBuf = 64 * units.KB
	}
	if o.MinRTO == 0 {
		o.MinRTO = 200 * time.Millisecond
	}
	if o.InitialRTO == 0 {
		o.InitialRTO = time.Second
	}
	return o
}

// DefaultOptions returns the stack defaults.
func DefaultOptions() Options {
	return Options{}.withDefaults()
}

// connKey packs a connection's (local port, remote address, remote
// port) into one integer, lport<<48 | raddr<<16 | rport, so the
// per-segment demux probe takes the map's integer fast path.
type connKey uint64

func makeConnKey(lport netsim.Port, raddr netsim.Addr, rport netsim.Port) connKey {
	return connKey(uint64(lport)<<48 | uint64(raddr)<<16 | uint64(rport))
}

// localPort returns the local port packed into k.
func (k connKey) localPort() netsim.Port { return netsim.Port(k >> 48) }

// Stack is the TCP transport instance on one node.
type Stack struct {
	k         *sim.Kernel
	node      *netsim.Node
	opts      Options
	conns     map[connKey]*Conn
	listeners map[netsim.Port]*Listener
	nextPort  netsim.Port

	m stackMetrics

	// segFree is the segment freelist; see allocSeg.
	segFree []*segment
}

// allocSeg returns a zeroed segment from the stack's freelist (its
// markers slice keeps its capacity), or a fresh one. Segments travel
// inside packets and are recycled by the receiving stack in
// HandlePacket; a segment lost with its packet in the network is
// simply garbage-collected.
func (s *Stack) allocSeg() *segment {
	if l := len(s.segFree); l > 0 {
		seg := s.segFree[l-1]
		s.segFree[l-1] = nil
		s.segFree = s.segFree[:l-1]
		return seg
	}
	return &segment{}
}

// freeSeg resets seg (releasing marker payload references) and
// returns it to the freelist.
func (s *Stack) freeSeg(seg *segment) {
	for i := range seg.markers {
		seg.markers[i] = marker{}
	}
	mk := seg.markers[:0]
	*seg = segment{}
	seg.markers = mk
	s.segFree = append(s.segFree, seg)
}

// stackMetrics holds the per-node metric handles every connection on
// a stack shares (resolved once in NewStack; co-located stacks on one
// node share series through registry dedup).
type stackMetrics struct {
	nodeName string
	segments *metrics.Counter
	retx     *metrics.Counter
	timeouts *metrics.Counter
	fastRetx *metrics.Counter
	rtt      *metrics.Histogram
	cwnd     *metrics.Gauge
	rec      *metrics.Recorder
}

// NewStack creates a TCP stack on node nd and registers it as the
// node's TCP handler. Zero-valued Options fields get defaults.
func NewStack(nd *netsim.Node, opts Options) *Stack {
	s := &Stack{
		k:         nd.Network().Kernel(),
		node:      nd,
		opts:      opts.withDefaults(),
		conns:     make(map[connKey]*Conn),
		listeners: make(map[netsim.Port]*Listener),
		nextPort:  40000,
	}
	reg := s.k.Metrics()
	name := nd.Name()
	s.m = stackMetrics{
		nodeName: name,
		segments: reg.Counter("tcp_segments_sent_total",
			"TCP segments handed to the network", "node", name),
		retx: reg.Counter("tcp_retransmits_total",
			"TCP data retransmissions", "node", name),
		timeouts: reg.Counter("tcp_timeouts_total",
			"TCP retransmission-timer expiries", "node", name),
		fastRetx: reg.Counter("tcp_fast_retransmits_total",
			"TCP fast-retransmit events", "node", name),
		rtt: reg.Histogram("tcp_rtt_seconds",
			"smoothed TCP round-trip samples", metrics.DefLatencyBuckets, "node", name),
		cwnd: reg.Gauge("tcp_cwnd_bytes",
			"congestion window of the node's most recently active connection", "node", name),
		rec: reg.Events(),
	}
	nd.Handle(netsim.ProtoTCP, s)
	return s
}

func (s *Stack) allocPort() netsim.Port {
	for {
		p := s.nextPort
		s.nextPort++
		if s.nextPort == 0 {
			s.nextPort = 40000
		}
		if _, used := s.listeners[p]; used {
			continue
		}
		inUse := false
		for k := range s.conns {
			if k.localPort() == p {
				inUse = true
				break
			}
		}
		if !inUse {
			return p
		}
	}
}

// HandlePacket implements netsim.Handler: demultiplex to an existing
// connection, a listener (SYN), or answer with RST. Segments of a
// known connection cost one map probe; only a miss looks for a
// listener.
func (s *Stack) HandlePacket(p *netsim.Packet) {
	seg, ok := p.Payload.(*segment)
	if !ok {
		return
	}
	if c := s.conns[makeConnKey(p.DstPort, p.Src, p.SrcPort)]; c != nil {
		c.handleSegment(seg, p)
	} else if l := s.listeners[p.DstPort]; l != nil && !l.closed &&
		seg.flags&flagSYN != 0 && seg.flags&flagACK == 0 {
		l.handleSyn(seg, p)
	} else if seg.flags&flagRST == 0 {
		s.sendRST(p)
	}
	// Segment handling is synchronous and copies everything it keeps,
	// so both the segment and its packet recycle here.
	s.freeSeg(seg)
	s.node.Network().FreePacket(p)
}

func (s *Stack) sendRST(orig *netsim.Packet) {
	seg := s.allocSeg()
	seg.flags = flagRST
	seg.ack = orig.Payload.(*segment).seq + 1
	pkt := s.node.Network().AllocPacket()
	pkt.Src = s.node.Addr()
	pkt.Dst = orig.Src
	pkt.SrcPort = orig.DstPort
	pkt.DstPort = orig.SrcPort
	pkt.Proto = netsim.ProtoTCP
	pkt.Size = netsim.TCPHeader + netsim.IPHeader
	pkt.Payload = seg
	_ = s.node.Send(pkt)
}

// Dial opens a connection to (raddr, rport), blocking the calling
// process until the handshake completes or fails.
func (s *Stack) Dial(ctx *sim.Ctx, raddr netsim.Addr, rport netsim.Port) (*Conn, error) {
	return s.DialFrom(ctx, 0, raddr, rport)
}

// DialFrom is Dial with an explicit local port (0 = ephemeral).
func (s *Stack) DialFrom(ctx *sim.Ctx, lport netsim.Port, raddr netsim.Addr, rport netsim.Port) (*Conn, error) {
	if lport == 0 {
		lport = s.allocPort()
	}
	key := makeConnKey(lport, raddr, rport)
	if s.conns[key] != nil {
		return nil, ErrPortInUse
	}
	c := newConn(s, lport, raddr, rport)
	s.conns[key] = c
	c.state = stateSynSent
	c.connect = c.tr.Begin(c.trace, 0, "tcp.connect", s.m.nodeName)
	c.connect.Int("lport", int64(lport)).Int("rport", int64(rport))
	rto := s.opts.InitialRTO
	for attempt := 0; attempt < synRetries; attempt++ {
		c.sendFlags(flagSYN, c.iss, 0)
		if c.established.WaitTimeout(ctx, rto) {
			break
		}
		rto *= 2
	}
	switch c.state {
	case stateEstablished:
		return c, nil
	case stateClosed:
		err := c.err
		if err == nil {
			err = ErrRefused
		}
		delete(s.conns, key)
		return nil, err
	default:
		c.destroy(ErrTimeout)
		return nil, ErrTimeout
	}
}

// Listen opens a listener on port (0 = ephemeral).
func (s *Stack) Listen(port netsim.Port) (*Listener, error) {
	if port == 0 {
		port = s.allocPort()
	}
	if s.listeners[port] != nil {
		return nil, ErrPortInUse
	}
	l := &Listener{stack: s, port: port, backlog: sim.NewMailbox(s.k)}
	s.listeners[port] = l
	return l, nil
}

// ConnCount returns the number of live connections (diagnostics).
func (s *Stack) ConnCount() int { return len(s.conns) }

// Listener accepts incoming connections on one port.
type Listener struct {
	stack   *Stack
	port    netsim.Port
	backlog *sim.Mailbox
	closed  bool
}

// Accept blocks until a fully established connection is available.
func (l *Listener) Accept(ctx *sim.Ctx) (*Conn, error) {
	v, ok := l.backlog.Recv(ctx)
	if !ok {
		return nil, ErrListenClosed
	}
	return v.(*Conn), nil
}

// Close stops accepting. Established-but-unaccepted connections are
// reset.
func (l *Listener) Close() {
	if l.closed {
		return
	}
	l.closed = true
	delete(l.stack.listeners, l.port)
	for {
		v, ok := l.backlog.TryRecv()
		if !ok {
			break
		}
		v.(*Conn).abort(ErrReset)
	}
	l.backlog.Close()
}

// handleSyn creates a half-open connection and replies SYN|ACK.
func (l *Listener) handleSyn(seg *segment, p *netsim.Packet) {
	s := l.stack
	key := makeConnKey(p.DstPort, p.Src, p.SrcPort)
	if s.conns[key] != nil {
		return // duplicate SYN; conn will handle retransmit
	}
	c := newConn(s, p.DstPort, p.Src, p.SrcPort)
	s.conns[key] = c
	c.listener = l
	c.state = stateSynRcvd
	c.connect = c.tr.Begin(c.trace, 0, "tcp.accept", s.m.nodeName)
	c.connect.Int("lport", int64(p.DstPort)).Int("rport", int64(p.SrcPort))
	c.rcvNxt = seg.seq + 1
	c.sendFlags(flagSYN|flagACK, c.iss, c.rcvNxt)
	// If the handshake ACK is lost the client's data segment will
	// also complete it; no SYN|ACK retransmit timer for simplicity.
}

func (s *Stack) String() string {
	return fmt.Sprintf("tcp@%s(%d conns)", s.node.Name(), len(s.conns))
}
