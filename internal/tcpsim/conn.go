package tcpsim

import (
	"fmt"
	"io"
	"time"

	"mpichgq/internal/netsim"
	"mpichgq/internal/sim"
	"mpichgq/internal/spans"
	"mpichgq/internal/units"
)

// Segment flags.
const (
	flagSYN = 1 << iota
	flagACK
	flagFIN
	flagRST
)

// marker attaches an application object to a stream position; it is
// delivered to the receiving application once the stream has been read
// up to pos.
type marker struct {
	pos int64
	obj any
}

// segment is the TCP payload carried inside a netsim.Packet.
type segment struct {
	seq     int64
	ack     int64
	flags   uint8
	length  units.ByteSize
	wnd     units.ByteSize
	markers []marker
}

func (s *segment) String() string {
	return fmt.Sprintf("seg{seq=%d ack=%d len=%d fl=%b}", s.seq, s.ack, s.length, s.flags)
}

type connState int

const (
	stateClosed connState = iota
	stateSynSent
	stateSynRcvd
	stateEstablished
)

// Conn is one TCP connection endpoint.
type Conn struct {
	stack    *Stack
	lport    netsim.Port
	raddr    netsim.Addr
	rport    netsim.Port
	state    connState
	listener *Listener
	err      error

	// Handshake.
	iss, irs    int64
	established *sim.Cond

	// Sender.
	sndUna, sndNxt int64
	sndMax         int64 // highest sequence ever transmitted
	sndBufEnd      int64 // stream position after the last byte the app wrote
	sndBufCap      units.ByteSize
	cwnd           float64 // bytes
	ssthresh       float64 // bytes
	rwnd           units.ByteSize
	dupAcks        int
	inRecovery     bool
	recover        int64
	rtxTimer       sim.Timer
	rto            time.Duration
	srtt, rttvar   time.Duration
	hasRTT         bool
	rttTiming      bool
	rttSeq         int64
	rttStart       time.Duration
	sndCond        *sim.Cond
	sndMarkers     []marker
	closeRequested bool
	finSeq         int64 // stream position of FIN, -1 until Close
	finAcked       bool
	persistTimer   sim.Timer
	lastSend       time.Duration // last data transmission (for SSR)

	// Receiver.
	rcvNxt    int64
	readPos   int64
	rcvBufCap units.ByteSize
	ooo       []interval
	// rcvMarkers[rcvHead:] are the markers received and not yet
	// returned by ReadMsg, in stream order. ReadMsg advances rcvHead
	// rather than re-slicing, so the backing array is reused instead
	// of regrown.
	rcvMarkers []marker
	rcvHead    int
	rcvCond    *sim.Cond
	peerFin    int64 // seq of peer's FIN, -1 if none
	eof        bool
	delack     sim.Timer
	unacked    int // segments received since last ACK sent

	stats ConnStats

	// Causal tracing: trace is the flow's trace ID (shared by both
	// endpoints — the 4-tuple is ordered canonically before hashing);
	// connect is the handshake span, kept after End so recovery spans
	// can parent under it; recSpan is the open fast-recovery episode.
	tr      *spans.Tracer
	trace   spans.TraceID
	connect *spans.Span
	recSpan *spans.Span
}

// interval is a received out-of-order byte range [start, end).
type interval struct {
	start, end int64
}

// ConnStats holds cumulative counters and instantaneous congestion
// state.
type ConnStats struct {
	BytesSent      int64 // payload bytes transmitted, incl. retransmits
	BytesAcked     int64
	BytesReceived  int64 // in-order payload bytes delivered toward the app
	SegmentsSent   uint64
	Retransmits    uint64
	Timeouts       uint64
	FastRetransmit uint64
	DupAcksSeen    uint64
	Cwnd           units.ByteSize
	Ssthresh       units.ByteSize
	SRTT           time.Duration
	RTO            time.Duration
}

func newConn(s *Stack, lport netsim.Port, raddr netsim.Addr, rport netsim.Port) *Conn {
	o := s.opts
	c := &Conn{
		stack:       s,
		lport:       lport,
		raddr:       raddr,
		rport:       rport,
		established: sim.NewCond(s.k),
		sndBufCap:   o.SndBuf,
		rcvBufCap:   o.RcvBuf,
		cwnd:        float64(mss) * initialCwndSegs,
		ssthresh:    1 << 30,
		rwnd:        o.RcvBuf,
		rto:         o.InitialRTO,
		sndCond:     sim.NewCond(s.k),
		rcvCond:     sim.NewCond(s.k),
		finSeq:      -1,
		peerFin:     -1,
	}
	// Sequence space: ISS 0 on both sides; the SYN consumes seq 0 so
	// the byte stream starts at position 1.
	c.sndUna, c.sndNxt, c.sndBufEnd = 0, 0, 1
	c.rcvNxt, c.readPos = 0, 1
	c.tr = s.k.Tracer()
	c.trace = flowTrace(s.node.Addr(), lport, raddr, rport)
	return c
}

// flowTrace derives the flow's trace ID from its 4-tuple, ordered
// canonically so both endpoints of a connection land in one trace.
func flowTrace(laddr netsim.Addr, lport netsim.Port, raddr netsim.Addr, rport netsim.Port) spans.TraceID {
	lo := uint64(laddr)<<16 | uint64(lport)
	hi := uint64(raddr)<<16 | uint64(rport)
	if lo > hi {
		lo, hi = hi, lo
	}
	return spans.DeriveTrace(spans.NSFlow, lo*0x9e3779b97f4a7c15^hi)
}

// LocalPort returns the connection's local port.
func (c *Conn) LocalPort() netsim.Port { return c.lport }

// RemoteAddr returns the peer's node address.
func (c *Conn) RemoteAddr() netsim.Addr { return c.raddr }

// RemotePort returns the peer's port.
func (c *Conn) RemotePort() netsim.Port { return c.rport }

// LocalAddr returns this endpoint's node address.
func (c *Conn) LocalAddr() netsim.Addr { return c.stack.node.Addr() }

// FlowKey returns the 5-tuple of this connection's outgoing direction.
func (c *Conn) FlowKey() netsim.FlowKey {
	return netsim.FlowKey{
		Src: c.LocalAddr(), Dst: c.raddr,
		SrcPort: c.lport, DstPort: c.rport,
		Proto: netsim.ProtoTCP,
	}
}

// SetSndBuf resizes the send socket buffer (the §5.5 tuning knob).
func (c *Conn) SetSndBuf(n units.ByteSize) {
	if n < mss {
		n = mss
	}
	c.sndBufCap = n
	c.sndCond.Broadcast()
}

// SetRcvBuf resizes the receive socket buffer.
func (c *Conn) SetRcvBuf(n units.ByteSize) {
	if n < mss {
		n = mss
	}
	c.rcvBufCap = n
}

// SndBuf returns the send buffer capacity.
func (c *Conn) SndBuf() units.ByteSize { return c.sndBufCap }

// Stats returns a snapshot of the connection's counters.
func (c *Conn) Stats() ConnStats {
	st := c.stats
	st.Cwnd = units.ByteSize(c.cwnd)
	st.Ssthresh = units.ByteSize(c.ssthresh)
	st.SRTT = c.srtt
	st.RTO = c.rto
	return st
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// Write blocks the calling process until n bytes have been accepted
// into the send buffer (not necessarily acknowledged). This mirrors a
// blocking write(2) on a socket with a finite SO_SNDBUF.
func (c *Conn) Write(ctx *sim.Ctx, n units.ByteSize) error {
	return c.write(ctx, n, nil)
}

// WriteMsg writes n bytes and attaches obj at the end of those bytes;
// the receiver's ReadMsg returns obj after consuming the stream up to
// that point. This is how the MPI layer moves structured messages over
// the byte stream.
func (c *Conn) WriteMsg(ctx *sim.Ctx, n units.ByteSize, obj any) error {
	if n <= 0 {
		return fmt.Errorf("tcpsim: WriteMsg with non-positive length %d", n)
	}
	return c.write(ctx, n, obj)
}

func (c *Conn) write(ctx *sim.Ctx, n units.ByteSize, obj any) error {
	if n < 0 {
		return fmt.Errorf("tcpsim: negative write length %d", n)
	}
	if c.state != stateEstablished || c.closeRequested {
		if c.err != nil {
			return c.err
		}
		return ErrClosed
	}
	if obj != nil {
		// Register the marker before any byte of the message can be
		// transmitted, so the segment that carries the final byte
		// always carries the marker too.
		c.sndMarkers = append(c.sndMarkers, marker{pos: c.sndBufEnd + int64(n), obj: obj})
	}
	remaining := n
	for remaining > 0 {
		if c.state != stateEstablished || c.closeRequested {
			if c.err != nil {
				return c.err
			}
			return ErrClosed
		}
		inBuf := units.ByteSize(c.sndBufEnd - maxI64(c.sndUna, 1))
		space := c.sndBufCap - inBuf
		if space <= 0 {
			c.sndCond.Wait(ctx)
			continue
		}
		chunk := remaining
		if chunk > space {
			chunk = space
		}
		c.sndBufEnd += int64(chunk)
		remaining -= chunk
		c.trySend()
	}
	return nil
}

// Read blocks until at least one byte is available, then consumes up
// to max bytes and returns the count. io.EOF signals a clean shutdown
// by the peer.
func (c *Conn) Read(ctx *sim.Ctx, max units.ByteSize) (units.ByteSize, error) {
	if max <= 0 {
		return 0, fmt.Errorf("tcpsim: non-positive read size %d", max)
	}
	for {
		if avail := units.ByteSize(c.dataLimit() - c.readPos); avail > 0 {
			n := max
			if n > avail {
				n = avail
			}
			c.consume(int64(n))
			return n, nil
		}
		if c.eof {
			return 0, io.EOF
		}
		if c.err != nil {
			return 0, c.err
		}
		if c.state == stateClosed {
			return 0, ErrClosed
		}
		c.rcvCond.Wait(ctx)
	}
}

// ReadFull blocks until exactly n bytes have been consumed.
func (c *Conn) ReadFull(ctx *sim.Ctx, n units.ByteSize) error {
	for n > 0 {
		got, err := c.Read(ctx, n)
		if err != nil {
			return err
		}
		n -= got
	}
	return nil
}

// ReadMsg blocks until the next marker is reached, consuming the
// stream up to it, and returns the consumed byte count (the message
// length) and the attached object. Data is consumed incrementally as
// it arrives, so messages larger than the receive buffer flow through
// without deadlock.
func (c *Conn) ReadMsg(ctx *sim.Ctx) (units.ByteSize, any, error) {
	var consumed units.ByteSize
	for {
		obj, ok, err := c.PollMsg(&consumed)
		if ok || err != nil {
			return consumed, obj, err
		}
		c.rcvCond.Wait(ctx)
	}
}

// PollMsg is ReadMsg without the blocking: it consumes what has
// arrived of the next message, adding the byte count to *consumed, and
// reports ok with the attached object once the marker is reached. An
// error ends the stream, with *consumed holding the bytes read of the
// last message. With neither, the caller waits for more data (Wait on
// the receive Cond inside ReadMsg, AwaitReadable for a callback) and
// calls again with the same counter, which carries the bytes consumed
// so far across wakes.
func (c *Conn) PollMsg(consumed *units.ByteSize) (any, bool, error) {
	for {
		pos, obj, ok := c.nextMarker()
		if ok && pos <= c.rcvNxt {
			// Whole message available: consume through the marker.
			*consumed += units.ByteSize(pos - c.readPos)
			c.consume(pos - c.readPos)
			c.popMarker()
			return obj, true, nil
		}
		// Marker not yet reached. Everything buffered belongs to the
		// current message (markers arrive with the segment that ends
		// the message, and the stream is in order), so drain it to
		// keep the window open.
		limit := c.dataLimit()
		if ok && pos < limit {
			limit = pos
		}
		if n := limit - c.readPos; n > 0 {
			*consumed += units.ByteSize(n)
			c.consume(n)
			continue
		}
		if c.eof {
			return nil, false, io.EOF
		}
		if c.err != nil {
			return nil, false, c.err
		}
		if c.state == stateClosed {
			return nil, false, ErrClosed
		}
		return nil, false, nil
	}
}

// AwaitReadable queues w to run when data, a marker or the end of the
// stream next arrives, where ReadMsg would block a process.
func (c *Conn) AwaitReadable(w *sim.Waiter) { c.rcvCond.Await(w) }

// nextMarker returns the earliest pending marker.
func (c *Conn) nextMarker() (int64, any, bool) {
	if c.rcvHead == len(c.rcvMarkers) {
		return 0, nil, false
	}
	m := c.rcvMarkers[c.rcvHead]
	return m.pos, m.obj, true
}

// popMarker drops the earliest pending marker, releasing its object.
func (c *Conn) popMarker() {
	c.rcvMarkers[c.rcvHead] = marker{}
	c.rcvHead++
	if c.rcvHead == len(c.rcvMarkers) {
		c.rcvMarkers, c.rcvHead = c.rcvMarkers[:0], 0
	}
}

// absorbMarker queues a marker that arrived with a segment, unless it
// has been seen before (retransmits and overlapping segments repeat
// markers). "Seen" is exactly "queued, or at or before readPos":
// transmitRange attaches a marker to every segment that covers its
// position, processData absorbs a segment's markers before accepting
// any of its bytes, and ReadMsg moves readPos to a marker's position
// when it pops that marker. So a marker at or before readPos was
// queued before the stream reached it, and a popped marker sits at or
// before readPos. Markers arrive in stream order unless segments do
// not, so the insertion is an append in practice.
func (c *Conn) absorbMarker(m marker) {
	if m.pos <= c.readPos {
		return
	}
	i := len(c.rcvMarkers)
	for i > c.rcvHead && c.rcvMarkers[i-1].pos >= m.pos {
		if c.rcvMarkers[i-1].pos == m.pos {
			return
		}
		i--
	}
	if c.rcvHead > 0 && len(c.rcvMarkers) == cap(c.rcvMarkers) {
		// Compact consumed slots at the head instead of growing.
		n := copy(c.rcvMarkers, c.rcvMarkers[c.rcvHead:])
		clear(c.rcvMarkers[n:])
		c.rcvMarkers = c.rcvMarkers[:n]
		i -= c.rcvHead
		c.rcvHead = 0
	}
	c.rcvMarkers = append(c.rcvMarkers, marker{})
	copy(c.rcvMarkers[i+1:], c.rcvMarkers[i:])
	c.rcvMarkers[i] = m
}

// dataLimit returns the stream position after the last readable data
// byte: rcvNxt, minus the phantom sequence slot the peer's FIN
// consumed.
func (c *Conn) dataLimit() int64 {
	if c.eof {
		return c.peerFin
	}
	return c.rcvNxt
}

// consume advances the app read position and sends a window update if
// the advertised window was nearly closed.
func (c *Conn) consume(n int64) {
	wasSmall := c.advertisedWnd() < mss
	c.readPos += n
	if wasSmall && c.advertisedWnd() >= mss {
		c.sendAck()
	}
}

func (c *Conn) advertisedWnd() units.ByteSize {
	used := units.ByteSize(c.rcvNxt - c.readPos)
	if used >= c.rcvBufCap {
		return 0
	}
	return c.rcvBufCap - used
}

// Drain blocks until every written byte has been acknowledged.
func (c *Conn) Drain(ctx *sim.Ctx) error {
	for c.sndUna < c.sndBufEnd {
		if c.err != nil {
			return c.err
		}
		if c.state != stateEstablished {
			return ErrClosed
		}
		c.sndCond.Wait(ctx)
	}
	return nil
}

// Close initiates a graceful shutdown: queued data is delivered, then
// a FIN. Close does not block; use Drain first for synchronous
// semantics.
func (c *Conn) Close() {
	if c.closeRequested || c.state == stateClosed {
		return
	}
	c.closeRequested = true
	c.finSeq = c.sndBufEnd
	c.trySend()
}

// abort resets the connection immediately.
func (c *Conn) abort(err error) {
	if c.state == stateClosed {
		return
	}
	seg := c.stack.allocSeg()
	seg.flags, seg.seq = flagRST, c.sndNxt
	c.sendSegment(seg)
	c.destroy(err)
}

// destroy tears down local state and wakes all blocked operations.
func (c *Conn) destroy(err error) {
	if c.state == stateClosed && c.err != nil {
		return
	}
	c.state = stateClosed
	if c.err == nil {
		c.err = err
	}
	// A handshake that never completed failed; an interrupted recovery
	// episode ends with the connection. (End is idempotent, so a
	// connect span already closed at establishment is untouched.)
	c.connect.EndStatus(spans.StatusFailed)
	c.recSpan.EndStatus(spans.StatusFailed)
	c.recSpan = nil
	c.rtxTimer.Cancel()
	c.delack.Cancel()
	c.persistTimer.Cancel()
	delete(c.stack.conns, makeConnKey(c.lport, c.raddr, c.rport))
	c.established.Broadcast()
	c.sndCond.Broadcast()
	c.rcvCond.Broadcast()
}

func (c *Conn) String() string {
	return fmt.Sprintf("conn{%s:%d->%d:%d}", c.stack.node.Name(), c.lport, c.raddr, c.rport)
}
