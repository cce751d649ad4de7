package tcpsim

import (
	"time"

	"mpichgq/internal/metrics"
	"mpichgq/internal/netsim"
	"mpichgq/internal/spans"
	"mpichgq/internal/units"
)

// sendFlags transmits a zero-length control segment.
func (c *Conn) sendFlags(flags uint8, seq, ack int64) {
	seg := c.stack.allocSeg()
	seg.flags, seg.seq, seg.ack, seg.wnd = flags, seq, ack, c.advertisedWnd()
	c.sendSegment(seg)
}

// sendFin transmits the FIN|ACK segment at stream position seq.
func (c *Conn) sendFin(seq int64) {
	seg := c.stack.allocSeg()
	seg.flags = flagFIN | flagACK
	seg.seq, seg.ack, seg.wnd = seq, c.rcvNxt, c.advertisedWnd()
	c.sendDataSegment(seg)
}

// sendAck transmits a pure ACK for the current receive state.
func (c *Conn) sendAck() {
	c.delack.Cancel()
	c.unacked = 0
	c.sendFlags(flagACK, c.sndNxt, c.rcvNxt)
}

// scheduleAck implements the delayed-ACK policy: immediate by default,
// or ack-every-other-segment with a 40 ms cap when enabled.
func (c *Conn) scheduleAck() {
	if !c.stack.opts.DelayedAck {
		c.sendAck()
		return
	}
	c.unacked++
	if c.unacked >= 2 {
		c.sendAck()
		return
	}
	if !c.delack.Pending() {
		c.delack = c.stack.k.AfterFunc(40*time.Millisecond, connDelack, c, nil)
	}
}

// connDelack is the prebound delayed-ACK callback; scheduling it
// through AfterFunc avoids a closure allocation per armed timer.
func connDelack(a0, _ any) {
	c := a0.(*Conn)
	if c.unacked > 0 {
		c.sendAck()
	}
}

// sendSegment wraps a segment into a packet and hands it to the node.
func (c *Conn) sendSegment(seg *segment) {
	p := c.stack.node.Network().AllocPacket()
	p.Src = c.LocalAddr()
	p.Dst = c.raddr
	p.SrcPort = c.lport
	p.DstPort = c.rport
	p.Proto = netsim.ProtoTCP
	p.Size = seg.length + netsim.TCPHeader + netsim.IPHeader
	p.PayloadLen = seg.length
	p.Payload = seg
	c.stats.SegmentsSent++
	c.stack.m.segments.Inc()
	c.stack.m.cwnd.Set(c.cwnd)
	// A local egress drop is just loss; retransmission recovers it.
	_ = c.stack.node.Send(p)
}

// effectiveWnd returns the sender's usable window in bytes.
func (c *Conn) effectiveWnd() int64 {
	w := int64(c.cwnd)
	if r := int64(c.rwnd); r < w && !c.inRecovery {
		w = r
	}
	return w
}

// trySend transmits as much new data (and the FIN) as window allows.
func (c *Conn) trySend() {
	if c.state != stateEstablished {
		return
	}
	// Slow-start restart: a connection idle past its RTO loses its
	// ACK clock; collapse cwnd to the initial window and ramp again.
	if !c.stack.opts.DisableSSR && c.sndNxt == c.sndUna && c.sndNxt < c.sndBufEnd &&
		c.lastSend > 0 && c.stack.k.Now()-c.lastSend > c.rto {
		if iw := float64(mss) * initialCwndSegs; c.cwnd > iw {
			c.cwnd = iw
		}
	}
	for {
		avail := c.sndUna + c.effectiveWnd() - c.sndNxt
		if avail <= 0 {
			// Zero-window with nothing in flight: arm the persist
			// timer so a lost window update cannot deadlock us.
			if c.sndNxt == c.sndUna && c.sndNxt < c.sndBufEnd {
				c.armPersist()
			}
			break
		}
		dataEnd := c.sndBufEnd
		if c.sndNxt < dataEnd {
			n := int64(mss)
			if rem := dataEnd - c.sndNxt; rem < n {
				n = rem
			}
			if avail < n {
				// Don't send a runt mid-stream unless it is all we
				// may send and nothing is in flight (avoid silly
				// window syndrome, keep ACK clock alive).
				if c.sndNxt != c.sndUna {
					break
				}
				n = avail
			}
			c.transmitRange(c.sndNxt, units.ByteSize(n), false)
			c.sndNxt += n
			c.armRtx()
			continue
		}
		if c.closeRequested && c.sndNxt == c.finSeq {
			c.sendFin(c.sndNxt)
			c.sndNxt = c.finSeq + 1
			if c.sndNxt > c.sndMax {
				c.sndMax = c.sndNxt
			}
			c.armRtx()
		}
		break
	}
}

// transmitRange sends payload bytes [seq, seq+n) with any markers in
// that range attached.
func (c *Conn) transmitRange(seq int64, n units.ByteSize, retx bool) {
	seg := c.stack.allocSeg()
	seg.flags = flagACK
	seg.seq, seg.ack = seq, c.rcvNxt
	seg.length = n
	seg.wnd = c.advertisedWnd()
	end := seq + int64(n)
	if end > c.sndMax {
		c.sndMax = end
	}
	for _, m := range c.sndMarkers {
		if m.pos > seq && m.pos <= end {
			seg.markers = append(seg.markers, m)
		}
	}
	c.stats.BytesSent += int64(n)
	m := &c.stack.m
	retxFlag := int64(0)
	if retx {
		c.stats.Retransmits++
		m.retx.Inc()
		m.rec.Emit(metrics.EvTCPRetransmit, m.nodeName, seq, int64(n), 0)
		retxFlag = 1
	} else if !c.rttTiming {
		// Karn's algorithm: time only segments sent once.
		c.rttTiming = true
		c.rttSeq = end
		c.rttStart = c.stack.k.Now()
	}
	m.rec.Emit(metrics.EvTCPSegment, m.nodeName, seq, int64(n), retxFlag)
	c.sendDataSegment(seg)
}

func (c *Conn) sendDataSegment(seg *segment) {
	c.sendSegment(seg)
	c.lastSend = c.stack.k.Now()
	c.unacked = 0 // data segments piggyback the ACK
}

// armPersist schedules a one-byte zero-window probe.
func (c *Conn) armPersist() {
	if c.persistTimer.Pending() {
		return
	}
	c.persistTimer = c.stack.k.AfterFunc(c.rto, connPersist, c, nil)
}

// connPersist is the prebound persist-timer callback.
func connPersist(a0, _ any) {
	c := a0.(*Conn)
	if c.state != stateEstablished || c.sndNxt != c.sndUna ||
		c.sndNxt >= c.sndBufEnd || c.effectiveWnd() > 0 {
		c.trySend()
		return
	}
	c.transmitRange(c.sndNxt, units.Byte, false)
	c.sndNxt++
	c.armRtx()
}

// armRtx starts the retransmission timer if it is not running.
func (c *Conn) armRtx() {
	if c.rtxTimer.Pending() {
		return
	}
	c.rtxTimer = c.stack.k.AfterFunc(c.rto, connRTO, c, nil)
}

// connRTO is the prebound retransmission-timeout callback; using it
// instead of the method value c.onRTO keeps timer (re)arming
// allocation-free on the data path.
func connRTO(a0, _ any) { a0.(*Conn).onRTO() }

// restartRtx restarts the timer (after an ACK advancing sndUna).
func (c *Conn) restartRtx() {
	c.rtxTimer.Cancel()
	if c.sndNxt > c.sndUna {
		c.rtxTimer = c.stack.k.AfterFunc(c.rto, connRTO, c, nil)
	}
}

// onRTO handles a retransmission timeout: multiplicative backoff,
// collapse to slow start, go-back-N from sndUna. This is the "TCP
// kicks into slow start mode" behaviour at the heart of the paper's
// Figures 1 and 6.
func (c *Conn) onRTO() {
	if c.state != stateEstablished || c.sndNxt == c.sndUna {
		return
	}
	c.stats.Timeouts++
	flight := float64(c.sndNxt - c.sndUna)
	c.ssthresh = flight / 2
	if min := 2 * float64(mss); c.ssthresh < min {
		c.ssthresh = min
	}
	c.cwnd = float64(mss)
	c.inRecovery = false
	// An RTO during fast recovery means recovery failed; either way the
	// timeout itself is an instant span on the flow's trace.
	c.recSpan.EndStatus(spans.StatusFailed)
	c.recSpan = nil
	c.tr.Begin(c.trace, c.connect.SpanID(), "tcp.rto", c.stack.m.nodeName).
		Int("seq", c.sndUna).Int("rto_ns", int64(c.rto)).
		EndStatus(spans.StatusBreached)
	c.dupAcks = 0
	c.rttTiming = false
	c.rto *= 2
	if c.rto > maxRTO {
		c.rto = maxRTO
	}
	c.stack.m.timeouts.Inc()
	c.stack.m.rec.Emit(metrics.EvTCPTimeout, c.stack.m.nodeName, c.sndUna, int64(c.rto), 0)
	// Go-back-N: always retransmit the first outstanding segment,
	// regardless of the advertised window (a zero window must not
	// block recovery of already-sent data).
	c.sndNxt = c.sndUna
	n := int64(mss)
	if rem := c.sndBufEnd - c.sndUna; rem < n {
		n = rem
	}
	if n > 0 {
		c.transmitRange(c.sndUna, units.ByteSize(n), true)
		c.sndNxt = c.sndUna + n
	} else if c.closeRequested && c.sndUna == c.finSeq {
		c.stats.Retransmits++
		c.sendFin(c.finSeq)
		c.sndNxt = c.finSeq + 1
	}
	c.trySend()
	c.armRtx()
}

// sampleRTT folds a measurement into srtt/rttvar per RFC 6298.
func (c *Conn) sampleRTT(r time.Duration) {
	c.stack.m.rtt.Observe(r.Seconds())
	if !c.hasRTT {
		c.srtt = r
		c.rttvar = r / 2
		c.hasRTT = true
	} else {
		d := c.srtt - r
		if d < 0 {
			d = -d
		}
		c.rttvar = (3*c.rttvar + d) / 4
		c.srtt = (7*c.srtt + r) / 8
	}
	c.rto = c.srtt + 4*c.rttvar
	if c.rto < c.stack.opts.MinRTO {
		c.rto = c.stack.opts.MinRTO
	}
	if c.rto > maxRTO {
		c.rto = maxRTO
	}
}

// handleSegment is the per-connection packet entry point.
func (c *Conn) handleSegment(seg *segment, p *netsim.Packet) {
	switch c.state {
	case stateClosed:
		return
	case stateSynSent:
		if seg.flags&flagRST != 0 {
			c.destroy(ErrRefused)
			return
		}
		if seg.flags&(flagSYN|flagACK) == flagSYN|flagACK && seg.ack == c.iss+1 {
			c.irs = seg.seq
			c.rcvNxt = seg.seq + 1
			c.sndUna = seg.ack
			c.sndNxt = seg.ack
			c.sndMax = seg.ack
			c.rwnd = seg.wnd
			c.state = stateEstablished
			c.connect.End()
			c.sendAck()
			c.established.Broadcast()
		}
		return
	case stateSynRcvd:
		if seg.flags&flagRST != 0 {
			c.destroy(ErrReset)
			return
		}
		if seg.flags&flagACK != 0 && seg.ack == c.iss+1 {
			c.sndUna = seg.ack
			c.sndNxt = seg.ack
			c.sndMax = seg.ack
			c.rwnd = seg.wnd
			c.state = stateEstablished
			c.connect.End()
			c.established.Broadcast()
			if c.listener != nil {
				if c.listener.closed {
					c.abort(ErrReset)
					return
				}
				c.listener.backlog.Send(c)
			}
			// Fall through: the completing segment may carry data.
		} else if seg.flags&flagSYN != 0 {
			// Retransmitted SYN: repeat the SYN|ACK.
			c.sendFlags(flagSYN|flagACK, c.iss, c.rcvNxt)
			return
		} else {
			return
		}
	}
	// Established.
	if seg.flags&flagRST != 0 {
		c.destroy(ErrReset)
		return
	}
	if seg.flags&flagSYN != 0 && seg.flags&flagACK != 0 {
		// Duplicate SYN|ACK (our handshake ACK was lost).
		c.sendAck()
		return
	}
	if seg.flags&flagACK != 0 {
		c.processAck(seg)
	}
	if seg.length > 0 {
		c.processData(seg)
	}
	if seg.flags&flagFIN != 0 {
		c.processFin(seg)
	}
}

// processAck implements NewReno ACK processing (RFC 2582).
func (c *Conn) processAck(seg *segment) {
	ack := seg.ack
	if ack > c.sndMax {
		return // acks data we never sent
	}
	wndChanged := seg.wnd != c.rwnd
	c.rwnd = seg.wnd
	if ack > c.sndUna {
		acked := ack - c.sndUna
		c.sndUna = ack
		if c.sndNxt < ack {
			// An ACK for data sent before a go-back-N reset: skip
			// ahead rather than re-sending what the peer has.
			c.sndNxt = ack
		}
		c.stats.BytesAcked += acked
		c.trimMarkers()
		if c.rttTiming && ack >= c.rttSeq {
			c.sampleRTT(c.stack.k.Now() - c.rttStart)
			c.rttTiming = false
		}
		mss := float64(mss)
		if c.inRecovery {
			if ack > c.recover {
				// Full ACK: leave fast recovery.
				c.inRecovery = false
				c.recSpan.Int("cwnd_exit", int64(c.ssthresh))
				c.recSpan.End()
				c.recSpan = nil
				c.cwnd = c.ssthresh
				c.dupAcks = 0
			} else {
				// Partial ACK (NewReno): retransmit the next hole,
				// deflate by the amount acked.
				c.retransmitHole()
				c.cwnd -= float64(acked)
				c.cwnd += mss
				if c.cwnd < mss {
					c.cwnd = mss
				}
				c.restartRtx()
			}
		} else {
			c.dupAcks = 0
			// Congestion window validation: only grow cwnd if the
			// window was essentially full when this data was sent —
			// an app-limited flow keeps its cwnd matched to actual
			// usage.
			wasLimited := c.stack.opts.DisableCWV ||
				float64(acked)+float64(c.sndNxt-c.sndUna) >= c.cwnd-mss
			if wasLimited {
				if c.cwnd < c.ssthresh {
					c.cwnd += mss // slow start
				} else {
					c.cwnd += mss * mss / c.cwnd // congestion avoidance
				}
			}
		}
		c.restartRtx()
		if c.closeRequested && c.finSeq >= 0 && ack > c.finSeq && !c.finAcked {
			c.finAcked = true
			c.sndCond.Broadcast()
			c.maybeTeardown()
			return
		}
		c.sndCond.Broadcast()
		c.trySend()
		return
	}
	// Duplicate ACK detection: same ack, no payload, unchanged
	// window, data outstanding.
	if ack == c.sndUna && seg.length == 0 && !wndChanged && c.sndNxt > c.sndUna {
		c.stats.DupAcksSeen++
		c.dupAcks++
		mss := float64(mss)
		if c.inRecovery {
			c.cwnd += mss // inflate
			c.trySend()
			return
		}
		if c.dupAcks == 3 {
			// Fast retransmit + fast recovery.
			c.stats.FastRetransmit++
			c.stack.m.fastRetx.Inc()
			flight := float64(c.sndNxt - c.sndUna)
			c.ssthresh = flight / 2
			if min := 2 * mss; c.ssthresh < min {
				c.ssthresh = min
			}
			c.recover = c.sndNxt
			c.inRecovery = true
			c.recSpan = c.tr.Begin(c.trace, c.connect.SpanID(), "tcp.recovery", c.stack.m.nodeName)
			c.recSpan.Int("seq", c.sndUna).Int("cwnd_entry", int64(c.cwnd))
			c.cwnd = c.ssthresh + 3*mss
			c.retransmitHole()
			c.restartRtx()
		}
	} else {
		// Window update or simultaneous data: may unblock sending.
		c.trySend()
	}
}

// retransmitHole resends the segment (or FIN) starting at sndUna.
func (c *Conn) retransmitHole() {
	n := int64(mss)
	if rem := c.sndBufEnd - c.sndUna; rem < n {
		n = rem
	}
	if n > 0 {
		c.transmitRange(c.sndUna, units.ByteSize(n), true)
		return
	}
	if c.closeRequested && c.sndUna == c.finSeq {
		c.stats.Retransmits++
		c.sendFin(c.finSeq)
	}
}

// trimMarkers discards sender-side markers at or below sndUna (they
// have been delivered).
func (c *Conn) trimMarkers() {
	i := 0
	for _, m := range c.sndMarkers {
		if m.pos > c.sndUna {
			c.sndMarkers[i] = m
			i++
		}
	}
	c.sndMarkers = c.sndMarkers[:i]
}

// processData handles an arriving payload range.
func (c *Conn) processData(seg *segment) {
	start, end := seg.seq, seg.seq+int64(seg.length)
	// Absorb markers before accepting any byte; see absorbMarker.
	for _, m := range seg.markers {
		c.absorbMarker(m)
	}
	switch {
	case end <= c.rcvNxt:
		// Pure duplicate; re-ACK immediately so the sender's dup-ack
		// machinery sees it.
		c.sendAck()
		return
	case start <= c.rcvNxt:
		// In-order (possibly overlapping) data.
		if units.ByteSize(end-c.readPos) > c.rcvBufCap {
			// Beyond our buffer: truncate to what fits.
			limit := c.readPos + int64(c.rcvBufCap)
			if limit <= c.rcvNxt {
				c.sendAck()
				return
			}
			end = limit
		}
		advanced := end - c.rcvNxt
		c.rcvNxt = end
		c.stats.BytesReceived += advanced
		c.mergeOOO()
		c.checkPeerFin()
		c.scheduleAck()
		c.rcvCond.Broadcast()
	default:
		// Out of order: store the interval, ACK the old rcvNxt (a
		// duplicate ACK that triggers the sender's fast retransmit).
		if units.ByteSize(end-c.readPos) <= c.rcvBufCap {
			c.insertOOO(interval{start: start, end: end})
		}
		c.sendAck()
	}
}

// insertOOO records an out-of-order range, merging overlaps.
func (c *Conn) insertOOO(iv interval) {
	merged := []interval{}
	for _, x := range c.ooo {
		if x.end < iv.start || x.start > iv.end {
			merged = append(merged, x)
			continue
		}
		if x.start < iv.start {
			iv.start = x.start
		}
		if x.end > iv.end {
			iv.end = x.end
		}
	}
	merged = append(merged, iv)
	c.ooo = merged
}

// mergeOOO advances rcvNxt across any stored ranges it now reaches.
func (c *Conn) mergeOOO() {
	for changed := true; changed; {
		changed = false
		keep := c.ooo[:0]
		for _, iv := range c.ooo {
			switch {
			case iv.end <= c.rcvNxt:
				// Fully consumed.
			case iv.start <= c.rcvNxt:
				adv := iv.end - c.rcvNxt
				c.rcvNxt = iv.end
				c.stats.BytesReceived += adv
				changed = true
			default:
				keep = append(keep, iv)
			}
		}
		c.ooo = keep
	}
}

// processFin handles the peer's FIN.
func (c *Conn) processFin(seg *segment) {
	if c.peerFin < 0 {
		c.peerFin = seg.seq
	}
	c.checkPeerFin()
	c.sendAck()
}

// checkPeerFin delivers EOF once all data before the FIN has arrived.
func (c *Conn) checkPeerFin() {
	if c.peerFin >= 0 && c.rcvNxt >= c.peerFin && !c.eof {
		c.rcvNxt = c.peerFin + 1
		c.eof = true
		c.rcvCond.Broadcast()
		c.maybeTeardown()
	}
}

// maybeTeardown removes the connection once both directions have shut
// down cleanly (our FIN acked, peer's FIN received). Lingering until
// then avoids spurious RSTs when the two sides close at different
// times.
func (c *Conn) maybeTeardown() {
	if c.finAcked && c.eof {
		c.destroy(ErrClosed)
	}
}
