package netsim

import (
	"fmt"
	"time"

	"mpichgq/internal/metrics"
	"mpichgq/internal/sim"
	"mpichgq/internal/units"
)

// IngressFilter processes a packet arriving at an interface before the
// node sees it. Filters run in registration order; returning nil drops
// the packet. A filter may modify the packet (e.g. remark its DSCP).
// DiffServ classifiers and token-bucket policers are ingress filters.
type IngressFilter interface {
	Filter(p *Packet) *Packet
}

// Iface is one end of a link. Each interface owns an egress queue and
// a transmitter that serializes one packet at a time at the link rate.
type Iface struct {
	node  *Node
	link  *Link
	side  int // 0 = link.a, 1 = link.b
	queue Queue

	ingress      []IngressFilter
	transmitting bool

	// arrivals carries this direction's packets in propagation to the
	// peer. The link's delay is fixed, so they arrive in the order
	// they left and only the first is in the kernel's event queue.
	arrivals *sim.Line

	// fluid, when non-nil, is the analytic state of fluid background
	// traffic sharing this egress; see fluid.go.
	fluid *ifaceFluid

	// busy accumulates serialization time for the utilization gauge.
	busy time.Duration

	// label is the interned "node[link]" string used for metric
	// labels and event subjects.
	label         string
	mTxPackets    *metrics.Counter
	mTxBytes      *metrics.Counter
	mEgressDrops  *metrics.Counter
	mIngressDrops *metrics.Counter
	mDownDrops    *metrics.Counter
	rec           *metrics.Recorder
}

// Node returns the node the interface belongs to.
func (i *Iface) Node() *Node { return i.node }

// Link returns the link the interface is attached to.
func (i *Iface) Link() *Link { return i.link }

// SetQueue replaces the egress queue. The existing queue must be empty
// (swap queues at configuration time, not mid-flight).
func (i *Iface) SetQueue(q Queue) {
	if i.queue != nil && i.queue.Len() > 0 {
		panic("netsim: SetQueue with packets in flight")
	}
	i.queue = q
}

// AddIngress appends an ingress filter.
func (i *Iface) AddIngress(f IngressFilter) { i.ingress = append(i.ingress, f) }

// InsertIngress prepends an ingress filter, giving it highest
// precedence. Fault injectors use this so that simulated wire loss
// happens before DiffServ classification sees (and polices) the
// packet.
func (i *Iface) InsertIngress(f IngressFilter) {
	i.ingress = append([]IngressFilter{f}, i.ingress...)
}

// peer returns the interface at the other end of the link.
func (i *Iface) peer() *Iface {
	if i.link == nil {
		return nil
	}
	if i.side == 0 {
		return i.link.b
	}
	return i.link.a
}

// Peer returns the interface at the other end of the link.
func (i *Iface) Peer() *Iface { return i.peer() }

// String identifies the interface for diagnostics.
func (i *Iface) String() string {
	return fmt.Sprintf("%s[%s]", i.node.name, i.link.name)
}

// enqueue places p on the egress queue and kicks the transmitter. With
// fluid traffic attached, the analytic fluid backlog shares the band's
// buffer: a packet that would overflow the band including that backlog
// is rejected like any other egress drop.
func (i *Iface) enqueue(p *Packet) bool {
	if !i.fluidAdmits(p) || !i.queue.Enqueue(p) {
		i.mEgressDrops.Inc()
		i.rec.Emit(metrics.EvPacketDropEgress, i.label, int64(p.Size), int64(p.DSCP), 0)
		i.node.net.FreePacket(p)
		return false
	}
	if fl := i.fluid; fl != nil && fl.waiting && !fl.waitEF {
		// An expedited arrival preempts a best-effort head's fluid
		// wait: strict priority means it only waits for the expedited
		// lane, so recompute with the shorter horizon.
		if eq, ok := i.queue.(ExpeditedQueue); ok && eq.Expedited(p.DSCP) {
			fl.waitTimer.Cancel()
			fl.waiting = false
		}
	}
	i.tryTransmit()
	return true
}

func (i *Iface) tryTransmit() {
	if i.transmitting || i.link.down {
		// A down link pauses the transmitter: queued packets are
		// retained and resume on SetUp(true).
		return
	}
	k := i.node.net.k
	if fl := i.fluid; fl != nil {
		if fl.waiting {
			return
		}
		fl.sync(k.Now())
		chained := fl.chained
		fl.chained = false
		if !fl.granted && i.queue.Len() > 0 {
			if w, efHead := fl.headWait(chained); w > 0 {
				fl.waiting, fl.waitEF = true, efHead
				fl.waitTimer = k.AfterPrioFunc(w, sim.PrioNet, ifaceFluidWaitDone, i, nil)
				return
			}
		}
		fl.granted = false
	}
	p := i.queue.Dequeue()
	if p == nil {
		return
	}
	i.transmitting = true
	txTime := i.link.rate.TimeToSend(p.Size)
	i.busy += txTime
	k.AfterPrioFunc(txTime, sim.PrioNet, ifaceTxDone, i, p)
}

// ifaceTxDone finishes serializing p on interface a0 and puts it on
// the interface's delay line to the peer. It is a prebound
// AfterPrioFunc callback so the per-packet forwarding path schedules
// without closure allocations.
func ifaceTxDone(a0, a1 any) {
	i := a0.(*Iface)
	p := a1.(*Packet)
	if fl := i.fluid; fl != nil {
		fl.sync(i.node.net.k.Now()) // the drain was paused for this serialization
		fl.chained = true           // next head competes at a band boundary
	}
	i.transmitting = false
	if i.link.down {
		// The carrier dropped mid-frame: the packet in flight is
		// lost, attributed to the transmitting direction.
		i.mDownDrops.Inc()
		i.node.net.FreePacket(p)
		return
	}
	i.mTxPackets.Inc()
	i.mTxBytes.Add(int64(p.Size))
	i.arrivals.AfterFunc(i.link.delay, ifaceArrive, i.peer(), p)
	i.tryTransmit()
}

// ifaceArrive delivers a propagated packet to the far interface.
func ifaceArrive(a0, a1 any) { a0.(*Iface).arrive(a1.(*Packet)) }

// arrive runs ingress filters and hands the packet to the node.
func (i *Iface) arrive(p *Packet) {
	for _, f := range i.ingress {
		next := f.Filter(p)
		if next == nil {
			i.mIngressDrops.Inc()
			i.rec.Emit(metrics.EvPacketDropIngress, i.label, int64(p.Size), int64(p.DSCP), 0)
			i.node.net.FreePacket(p)
			return
		}
		p = next
	}
	i.node.receive(i, p)
}

// Link is a full-duplex point-to-point link with symmetric rate and
// one-way propagation delay.
type Link struct {
	net   *Network
	name  string
	a, b  *Iface
	rate  units.BitRate
	delay time.Duration
	down  bool

	rec *metrics.Recorder
}

// SetUp brings the link up or down. While down, both transmitters
// pause: queued packets are retained and resume when the link comes
// back up. Only a packet caught mid-serialization at the down
// transition is lost (counted as a down-drop on its direction), as on
// a real circuit losing carrier. Each transition emits a link.up /
// link.down flight-recorder event and notifies the network so
// failover routing (when enabled) can recompute paths.
func (l *Link) SetUp(up bool) {
	if l.down == !up {
		return // no change: repeated calls must not re-emit events
	}
	l.a.fluidSync()
	l.b.fluidSync()
	l.down = !up
	if up {
		l.rec.Emit(metrics.EvLinkUp, l.name,
			int64(l.a.queue.Len()), int64(l.b.queue.Len()), 0)
		l.a.tryTransmit()
		l.b.tryTransmit()
	} else {
		l.rec.Emit(metrics.EvLinkDown, l.name,
			int64(l.a.queue.Len()), int64(l.b.queue.Len()), 0)
	}
	l.net.linkStateChanged(l)
}

// Up reports whether the link is in service.
func (l *Link) Up() bool { return !l.down }

// Name returns the link name ("n1-n2").
func (l *Link) Name() string { return l.name }

// Rate returns the link bandwidth.
func (l *Link) Rate() units.BitRate { return l.rate }

// Delay returns the one-way propagation delay.
func (l *Link) Delay() time.Duration { return l.delay }

// A returns the interface on the first-named node.
func (l *Link) A() *Iface { return l.a }

// B returns the interface on the second-named node.
func (l *Link) B() *Iface { return l.b }

// DefaultQueueCap is the egress buffer size given to new interfaces:
// roughly 64 full-size (1500 B) packets, typical of the era's router
// line cards.
const DefaultQueueCap = 96 * units.KB

// Connect joins two nodes with a full-duplex link of the given rate
// and one-way delay. Both interfaces get fresh drop-tail queues of
// DefaultQueueCap.
func (n *Network) Connect(n1, n2 *Node, rate units.BitRate, delay time.Duration) *Link {
	if n1 == n2 {
		panic("netsim: cannot connect a node to itself")
	}
	l := &Link{
		net:   n,
		name:  n1.name + "-" + n2.name,
		rate:  rate,
		delay: delay,
	}
	l.a = &Iface{node: n1, link: l, side: 0, queue: NewDropTail(DefaultQueueCap)}
	l.b = &Iface{node: n2, link: l, side: 1, queue: NewDropTail(DefaultQueueCap)}
	l.a.attachMetrics()
	l.b.attachMetrics()
	l.a.arrivals = n.k.NewLine(sim.PrioNet)
	l.b.arrivals = n.k.NewLine(sim.PrioNet)
	l.rec = n.k.Metrics().Events()
	n.k.Metrics().GaugeFunc("netsim_link_up",
		"1 while the link is in service, 0 while down",
		func() float64 {
			if l.down {
				return 0
			}
			return 1
		}, "link", l.name)
	n1.ifaces = append(n1.ifaces, l.a)
	n2.ifaces = append(n2.ifaces, l.b)
	n.links = append(n.links, l)
	return l
}

// attachMetrics resolves the interface's metric handles and registers
// its live gauges. Called once from Connect.
func (i *Iface) attachMetrics() {
	k := i.node.net.k
	reg := k.Metrics()
	i.label = i.String()
	i.rec = reg.Events()
	i.mTxPackets = reg.Counter("netsim_tx_packets_total",
		"packets transmitted on the link", "iface", i.label)
	i.mTxBytes = reg.Counter("netsim_tx_bytes_total",
		"bytes transmitted on the link", "iface", i.label)
	i.mEgressDrops = reg.Counter("netsim_egress_drops_total",
		"packets rejected by the egress queue", "iface", i.label)
	i.mIngressDrops = reg.Counter("netsim_ingress_drops_total",
		"packets dropped by ingress filters", "iface", i.label)
	i.mDownDrops = reg.Counter("netsim_down_drops_total",
		"packets lost in flight when the link left service", "iface", i.label)
	reg.GaugeFunc("netsim_queue_depth_packets",
		"packets currently queued for egress",
		func() float64 { return float64(i.queue.Len()) }, "iface", i.label)
	reg.GaugeFunc("netsim_queue_depth_bytes",
		"bytes currently queued for egress",
		func() float64 { return float64(i.queue.Bytes()) }, "iface", i.label)
	reg.GaugeFunc("netsim_link_utilization",
		"fraction of elapsed sim time spent serializing packets",
		func() float64 {
			now := k.Now()
			if now <= 0 {
				return 0
			}
			return i.busy.Seconds() / now.Seconds()
		}, "iface", i.label)
}
