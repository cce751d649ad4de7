// Package intserv implements the Integrated Services architecture the
// paper contrasts with Differentiated Services (§2): per-flow
// reservations at *every* router via RSVP-style signaling, enforced
// by weighted fair queueing. "The IS approach has been criticized as
// being too 'heavy' ... each router is required to recognize and
// treat each application-level flow separately."
//
// The package exists as a baseline: the comparison tests and
// benchmarks quantify exactly that per-router state burden against
// GARA/DS's edge-only state, while showing both approaches protect
// premium flows.
package intserv

import (
	"container/heap"
	"fmt"

	"mpichgq/internal/netsim"
	"mpichgq/internal/units"
)

// WFQ is a start-time fair queueing scheduler (an O(log n) WFQ
// approximation): each reserved flow has its own queue served in
// proportion to its reserved rate, and all unreserved traffic shares
// a best-effort queue with the leftover weight.
type WFQ struct {
	linkRate units.BitRate
	flows    map[netsim.FlowKey]*wfqFlow
	be       *wfqFlow // best-effort aggregate
	vtime    float64
	heapq    wfqHeap
	seq      uint64

	perFlowCap units.ByteSize
}

type wfqFlow struct {
	rate       units.BitRate // weight
	bytes      units.ByteSize
	lastFinish float64
}

type taggedPkt struct {
	p      *netsim.Packet
	flow   *wfqFlow
	start  float64
	finish float64
	seq    uint64
}

type wfqHeap []*taggedPkt

func (h wfqHeap) Len() int { return len(h) }
func (h wfqHeap) Less(i, j int) bool {
	if h[i].finish != h[j].finish {
		return h[i].finish < h[j].finish
	}
	return h[i].seq < h[j].seq
}
func (h wfqHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
}
func (h *wfqHeap) Push(x any) { *h = append(*h, x.(*taggedPkt)) }
func (h *wfqHeap) Pop() any {
	old := *h
	n := len(old)
	t := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return t
}

// NewWFQ returns a scheduler for a link of the given rate. Each flow
// queue (and the best-effort queue) holds at most perFlowCap bytes.
func NewWFQ(linkRate units.BitRate, perFlowCap units.ByteSize) *WFQ {
	if perFlowCap <= 0 {
		perFlowCap = netsim.DefaultQueueCap
	}
	w := &WFQ{
		linkRate:   linkRate,
		flows:      make(map[netsim.FlowKey]*wfqFlow),
		perFlowCap: perFlowCap,
	}
	w.be = &wfqFlow{rate: linkRate} // weight adjusted as flows come and go
	return w
}

// AddFlow installs a per-flow reservation. The sum of reserved rates
// may not exceed the link rate.
func (w *WFQ) AddFlow(key netsim.FlowKey, rate units.BitRate) error {
	if _, dup := w.flows[key]; dup {
		return fmt.Errorf("intserv: flow %v already reserved", key)
	}
	total := rate
	for _, f := range w.flows {
		total += f.rate
	}
	if total > w.linkRate {
		return fmt.Errorf("intserv: reservations %v exceed link rate %v", total, w.linkRate)
	}
	w.flows[key] = &wfqFlow{rate: rate}
	w.rebalance()
	return nil
}

// RemoveFlow releases a reservation; queued packets of the flow are
// re-classified as best effort at their next service.
func (w *WFQ) RemoveFlow(key netsim.FlowKey) bool {
	if _, ok := w.flows[key]; !ok {
		return false
	}
	delete(w.flows, key)
	w.rebalance()
	return true
}

// FlowCount returns the number of installed per-flow reservations —
// the router-state metric of the IS-vs-DS comparison.
func (w *WFQ) FlowCount() int { return len(w.flows) }

// rebalance gives the best-effort aggregate the leftover weight.
func (w *WFQ) rebalance() {
	total := units.BitRate(0)
	for _, f := range w.flows {
		total += f.rate
	}
	left := w.linkRate - total
	if left < w.linkRate/100 {
		left = w.linkRate / 100 // never fully starve best effort
	}
	w.be.rate = left
}

func (w *WFQ) flowFor(p *netsim.Packet) *wfqFlow {
	if f, ok := w.flows[p.Key()]; ok {
		return f
	}
	return w.be
}

// Enqueue implements netsim.Queue.
func (w *WFQ) Enqueue(p *netsim.Packet) bool {
	f := w.flowFor(p)
	if f.bytes+p.Size > w.perFlowCap {
		return false
	}
	start := w.vtime
	if f.lastFinish > start {
		start = f.lastFinish
	}
	finish := start + float64(p.Size.Bits())/float64(f.rate)
	f.lastFinish = finish
	w.seq++
	t := &taggedPkt{p: p, flow: f, start: start, finish: finish, seq: w.seq}
	f.bytes += p.Size
	heap.Push(&w.heapq, t)
	return true
}

// Dequeue implements netsim.Queue: serve the smallest finish tag.
func (w *WFQ) Dequeue() *netsim.Packet {
	if len(w.heapq) == 0 {
		return nil
	}
	t := heap.Pop(&w.heapq).(*taggedPkt)
	w.vtime = t.start
	f := t.flow
	f.bytes -= t.p.Size
	return t.p
}

// Len implements netsim.Queue.
func (w *WFQ) Len() int { return len(w.heapq) }

// Bytes implements netsim.Queue.
func (w *WFQ) Bytes() units.ByteSize {
	total := w.be.bytes
	for _, f := range w.flows {
		total += f.bytes
	}
	return total
}
