package intserv

import (
	"fmt"
	"time"

	"mpichgq/internal/netsim"
	"mpichgq/internal/sim"
	"mpichgq/internal/units"
)

// RSVP manages per-flow reservations hop by hop, in the style of the
// Resource ReSerVation Protocol (RFC 2205): a reservation installs
// WFQ flow state at every router egress along the path, and the state
// is *soft* — it must be refreshed periodically or the routers time
// it out.
type RSVP struct {
	k   *sim.Kernel
	net *netsim.Network
	// queues holds the WFQ installed at each managed egress
	// interface (installed lazily on first reservation through it).
	queues map[*netsim.Iface]*WFQ
}

const (
	// guaranteedFraction of each link is reservable by guaranteed
	// flows.
	guaranteedFraction = 0.9
	// refreshPeriod between soft-state refreshes; state expires after
	// 3 missed refreshes.
	refreshPeriod = 5 * time.Second
)

// NewRSVP returns a manager over net.
func NewRSVP(net *netsim.Network) *RSVP {
	return &RSVP{
		k:      net.Kernel(),
		net:    net,
		queues: make(map[*netsim.Iface]*WFQ),
	}
}

// queueAt returns (installing if needed) the WFQ on an egress iface.
func (r *RSVP) queueAt(out *netsim.Iface) *WFQ {
	if q, ok := r.queues[out]; ok {
		return q
	}
	q := NewWFQ(units.BitRate(float64(out.Link().Rate())*guaranteedFraction), netsim.DefaultQueueCap)
	out.SetQueue(q)
	r.queues[out] = q
	return q
}

// Session is one end-to-end guaranteed reservation.
type Session struct {
	rsvp *RSVP
	flow netsim.FlowKey
	hops []*hopState
	done bool

	refreshTimer sim.Timer
	// AutoRefresh keeps the soft state alive (default). Disable to
	// observe soft-state expiry.
	AutoRefresh bool
}

type hopState struct {
	q       *WFQ
	expires time.Duration
}

// Reserve walks the flow's path, performing admission control and
// installing WFQ state at each hop — the per-router burden the DS
// approach avoids. All-or-nothing: a mid-path rejection rolls back.
func (r *RSVP) Reserve(flow netsim.FlowKey, rate units.BitRate) (*Session, error) {
	if rate <= 0 {
		return nil, fmt.Errorf("intserv: non-positive rate %v", rate)
	}
	var srcNode *netsim.Node
	for _, nd := range r.net.Nodes() {
		if nd.Addr() == flow.Src {
			srcNode = nd
			break
		}
	}
	if srcNode == nil {
		return nil, fmt.Errorf("intserv: unknown source %d", flow.Src)
	}
	s := &Session{rsvp: r, flow: flow, AutoRefresh: true}
	node := srcNode
	for node.Addr() != flow.Dst {
		out := node.RouteTo(flow.Dst)
		if out == nil {
			s.rollback()
			return nil, fmt.Errorf("intserv: no route from %q", node.Name())
		}
		q := r.queueAt(out)
		if err := q.AddFlow(flow, rate); err != nil {
			s.rollback()
			return nil, err
		}
		s.hops = append(s.hops, &hopState{q: q, expires: r.k.Now() + 3*refreshPeriod})
		node = out.Peer().Node()
		if len(s.hops) > len(r.net.Nodes()) {
			s.rollback()
			return nil, fmt.Errorf("intserv: routing loop")
		}
	}
	if len(s.hops) == 0 {
		return nil, fmt.Errorf("intserv: source and destination are the same node")
	}
	s.scheduleRefresh()
	return s, nil
}

// scheduleRefresh arms the soft-state timer chain.
func (s *Session) scheduleRefresh() {
	s.refreshTimer = s.rsvp.k.After(refreshPeriod, func() {
		if s.done {
			return
		}
		now := s.rsvp.k.Now()
		if s.AutoRefresh {
			for _, h := range s.hops {
				h.expires = now + 3*refreshPeriod
			}
			s.scheduleRefresh()
			return
		}
		// Refreshes stopped: expire hops whose timers ran out.
		expired := false
		for _, h := range s.hops {
			if now >= h.expires {
				expired = true
			}
		}
		if expired {
			s.Teardown()
			return
		}
		s.scheduleRefresh()
	})
}

// Teardown releases the reservation at every hop (PathTear).
func (s *Session) Teardown() {
	if s.done {
		return
	}
	s.done = true
	s.refreshTimer.Cancel()
	s.rollback()
}

func (s *Session) rollback() {
	for _, h := range s.hops {
		h.q.RemoveFlow(s.flow)
	}
	s.hops = nil
}

// StateAt returns the number of per-flow entries a node currently
// holds across its egress interfaces — the "too heavy" metric.
func (r *RSVP) StateAt(nd *netsim.Node) int {
	n := 0
	for _, ifc := range nd.Ifaces() {
		if q, ok := r.queues[ifc]; ok {
			n += q.FlowCount()
		}
	}
	return n
}
