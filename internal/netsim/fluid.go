// Hybrid fluid/packet simulation of background traffic.
//
// A FluidFlow models a constant-bit-rate background flow (the UDP
// blaster of the paper's contention experiments) as a piecewise-
// constant arrival *rate* installed at every egress queue on its path,
// instead of as individual packets. Queues integrate fluid occupancy
// analytically between packet events, so the only kernel events a
// background flow costs are its rate changes (start, stop, SetRate)
// and the topology transitions (link up/down, reroute) that move its
// path — plus one bounded "fluid wait" event per foreground packet
// that has to queue behind fluid backlog.
//
// The model, its error bound against packet-level simulation, and the
// cases it deliberately does not cover are documented in
// docs/performance.md ("Hybrid fluid/packet simulation").
package netsim

import (
	"math"
	"time"

	"mpichgq/internal/metrics"
	"mpichgq/internal/sim"
	"mpichgq/internal/spans"
	"mpichgq/internal/units"
)

// FluidComponent is one DSCP-class share of a fluid flow's rate at a
// point on its path. Policing can split a flow into at most a couple
// of components (e.g. a conforming EF share and a remarked best-effort
// share).
type FluidComponent struct {
	// Rate is the component's arrival rate in bytes per second.
	Rate float64
	// DSCP is the code point the component currently carries.
	DSCP DSCP
}

// FluidFilter is the fluid analog of IngressFilter: an ingress filter
// that also knows how to transform a steady arrival rate. The DiffServ
// classifier implements it (classify, mark, police fluid aggregates).
// Ingress filters that do not implement FluidFilter are skipped by the
// fluid solver — per-packet behaviours such as random wire loss have
// no defined steady-state rate transform.
type FluidFilter interface {
	// FilterFluid transforms the components of one flow crossing the
	// filter. gen increments once per solver pass, so filters that
	// police a shared aggregate can reset their rate budget when it
	// changes and split it across the flows of one pass in
	// deterministic order. Returning an empty slice drops the flow at
	// this hop.
	FilterFluid(gen uint64, key FlowKey, comps []FluidComponent) []FluidComponent
}

// ExpeditedQueue is implemented by egress queues that serve an
// expedited band ahead of a best-effort band (the DiffServ strict-
// priority scheduler). The fluid solver uses it to keep expedited and
// best-effort fluid in separate lanes with the right caps, and the
// transmitter uses it to compute how much fluid backlog actually
// precedes an expedited head-of-line packet.
type ExpeditedQueue interface {
	Queue
	// Expedited reports whether code point d maps to the expedited
	// band.
	Expedited(d DSCP) bool
	// BandOccupancy returns the queued bytes and byte capacity of one
	// band.
	BandOccupancy(expedited bool) (bytes, capacity units.ByteSize)
}

// FluidFlow is a background CBR flow simulated as fluid. Create one
// with Network.NewFluidFlow, then Start/Stop/SetRate it; each of those
// is a rate-change event that re-solves the fluid rates network-wide.
type FluidFlow struct {
	net      *Network
	name     string
	src, dst *Node
	key      FlowKey
	dscp     DSCP
	rate     units.BitRate
	// chunk is the on-wire size of the packets the flow stands in for;
	// it sets the service quantum foreground packets see.
	chunk  units.ByteSize
	active bool

	// Solver outputs.
	deliveredBps float64 // bytes/s arriving at dst after attenuation
	hops         int

	// Lazily integrated accounting.
	lastAcct       time.Duration
	offeredBytes   float64
	deliveredBytes float64

	span *spans.Span
}

// NewFluidFlow declares a fluid background flow from src to dst with
// the given UDP destination port, offered rate, and payload size per
// notional packet (the same parameters a packet-level UDP blaster
// takes). The flow is inactive until Start.
func (n *Network) NewFluidFlow(name string, src, dst *Node, port Port, rate units.BitRate, payload units.ByteSize) *FluidFlow {
	if rate < 0 {
		panic("netsim: negative fluid flow rate")
	}
	if payload <= 0 {
		payload = 1000
	}
	n.nextFluid++
	f := &FluidFlow{
		net:  n,
		name: name,
		src:  src,
		dst:  dst,
		key: FlowKey{
			Src:     src.addr,
			Dst:     dst.addr,
			SrcPort: Port(40000 + n.nextFluid),
			DstPort: port,
			Proto:   ProtoUDP,
		},
		dscp:     DSCPBestEffort,
		rate:     rate,
		chunk:    payload + UDPHeader + IPHeader,
		lastAcct: n.k.Now(),
	}
	n.fluidFlows = append(n.fluidFlows, f)
	return f
}

// account integrates offered/delivered byte counts up to now at the
// current rates.
func (f *FluidFlow) account(now time.Duration) {
	if dt := (now - f.lastAcct).Seconds(); dt > 0 && f.active {
		f.offeredBytes += float64(f.rate) / 8 * dt
		f.deliveredBytes += f.deliveredBps * dt
	}
	f.lastAcct = now
}

// OfferedBytes returns the bytes the flow has offered so far.
func (f *FluidFlow) OfferedBytes() units.ByteSize {
	f.account(f.net.k.Now())
	return units.ByteSize(f.offeredBytes)
}

// Start activates the flow and re-solves fluid rates. Idempotent.
func (f *FluidFlow) Start() {
	if f.active {
		return
	}
	now := f.net.k.Now()
	f.account(now)
	f.active = true
	f.net.k.Metrics().Events().Emit(metrics.EvFluidStart, f.name,
		int64(f.rate), int64(f.chunk), 0)
	if tr := f.net.k.Tracer(); tr.Enabled() {
		f.span = tr.Begin(spans.DeriveTrace(spans.NSFlow, f.traceKey()), 0, "fluid.flow", f.name)
		f.span.Int("rate_bps", int64(f.rate))
	}
	f.net.refreshFluid()
}

// Stop deactivates the flow and re-solves fluid rates. Idempotent.
func (f *FluidFlow) Stop() {
	if !f.active {
		return
	}
	now := f.net.k.Now()
	f.account(now)
	f.active = false
	f.net.k.Metrics().Events().Emit(metrics.EvFluidStop, f.name,
		int64(f.offeredBytes), int64(f.deliveredBytes), 0)
	if f.span != nil {
		f.span.Int("offered_bytes", int64(f.offeredBytes))
		f.span.Int("delivered_bytes", int64(f.deliveredBytes))
		f.span.End()
		f.span = nil
	}
	f.net.refreshFluid()
}

// traceKey folds the flow 5-tuple into a stable 64-bit key for
// deterministic trace IDs.
func (f *FluidFlow) traceKey() uint64 {
	return uint64(f.key.Src)<<40 | uint64(f.key.Dst)<<24 |
		uint64(f.key.SrcPort)<<8 | uint64(f.key.DstPort)<<4 | uint64(f.key.Proto)
}

// ifaceFluid is the per-interface fluid state: arrival rates and
// analytically integrated backlogs for the expedited and best-effort
// lanes of the egress queue.
type ifaceFluid struct {
	ifc *Iface

	// Queue shape, re-read at each solve.
	banded       bool
	eq           ExpeditedQueue
	efCap, beCap float64 // lane caps, bytes

	// Installed arrival rates, bytes/s.
	efIn, beIn float64
	// Analytic backlogs, bytes.
	efQ, beQ float64
	// chunk is the service quantum in bytes: the largest on-wire
	// packet size among contributing flows.
	chunk float64
	// last is the integration frontier.
	last time.Duration

	lossBytes float64

	// Solver pass accumulators.
	passEF, passBE float64
	prevEF, prevBE float64
	passChunk      float64

	// Transmitter arbitration: while waiting, a fluid-wait event is
	// pending for the head-of-line packet; granted lets that packet
	// transmit without re-waiting when the event fires. chained marks
	// a service-completion instant: the next head competes with fluid
	// at a band boundary, not mid-chunk.
	waiting   bool
	waitEF    bool
	granted   bool
	chained   bool
	waitTimer sim.Timer

	mLoss        *metrics.Counter
	lossCredited int64
}

// ensureFluid attaches fluid state to an interface the first time a
// flow's path crosses it.
func (n *Network) ensureFluid(ifc *Iface) *ifaceFluid {
	if ifc.fluid == nil {
		fl := &ifaceFluid{ifc: ifc, last: n.k.Now()}
		ifc.fluid = fl
		n.fluidIfaces = append(n.fluidIfaces, ifc)
		fl.attachMetrics()
	}
	return ifc.fluid
}

func (fl *ifaceFluid) attachMetrics() {
	reg := fl.ifc.node.net.k.Metrics()
	label := fl.ifc.label
	fl.mLoss = reg.Counter("netsim_fluid_loss_bytes_total",
		"fluid background bytes dropped at the egress queue", "iface", label)
	reg.GaugeFunc("netsim_fluid_backlog_bytes",
		"analytic fluid backlog queued for egress",
		func() float64 { return fl.efQ + fl.beQ }, "iface", label)
	reg.GaugeFunc("netsim_fluid_rate_bps",
		"fluid arrival rate installed at the egress",
		func() float64 { return 8 * (fl.efIn + fl.beIn) }, "iface", label)
}

// readShape re-reads the egress queue's band structure and caps.
// Called once per solver pass so queues configured after the first
// flow started are picked up.
func (fl *ifaceFluid) readShape() {
	switch q := fl.ifc.queue.(type) {
	case ExpeditedQueue:
		fl.banded = true
		fl.eq = q
		_, efc := q.BandOccupancy(true)
		_, bec := q.BandOccupancy(false)
		fl.efCap, fl.beCap = float64(efc), float64(bec)
	case *DropTail:
		fl.banded = false
		fl.eq = nil
		fl.efCap, fl.beCap = 0, float64(q.Cap())
	default:
		fl.banded = false
		fl.eq = nil
		fl.efCap, fl.beCap = 0, float64(DefaultQueueCap)
	}
}

func (fl *ifaceFluid) beginPass() {
	fl.prevEF, fl.prevBE = fl.passEF, fl.passBE
	fl.passEF, fl.passBE = 0, 0
	fl.passChunk = 0
	fl.readShape()
}

// expedited reports whether a component of code point d lands in the
// expedited lane at this interface.
func (fl *ifaceFluid) expedited(d DSCP) bool {
	return fl.banded && fl.eq.Expedited(d)
}

func (fl *ifaceFluid) addPass(c FluidComponent, chunk float64) {
	if fl.expedited(c.DSCP) {
		fl.passEF += c.Rate
	} else {
		fl.passBE += c.Rate
	}
	if chunk > fl.passChunk {
		fl.passChunk = chunk
	}
}

// prevShare returns the previous pass's service share for a component
// of code point d at this hop: the fraction of its arrival rate the
// link can carry onward given strict priority and the competing fluid
// aggregates. Foreground packet load is ignored here — it is a small,
// bursty fraction whose effect on *downstream* fluid rates is second
// order (the backlog integration still accounts for it locally).
func (fl *ifaceFluid) prevShare(d DSCP) float64 {
	if fl.ifc.link.down {
		return 0
	}
	c := float64(fl.ifc.link.rate) / 8
	if fl.expedited(d) {
		if fl.prevEF <= c {
			return 1
		}
		return c / fl.prevEF
	}
	cbe := c - math.Min(fl.prevEF, c)
	if fl.prevBE <= cbe {
		return 1
	}
	if cbe <= 0 {
		return 0
	}
	return cbe / fl.prevBE
}

const (
	// fluidMaxPasses bounds the fixed-point iteration of the rate
	// solver. Feed-forward paths converge in two passes; the extra
	// headroom covers chains of saturated hops.
	fluidMaxPasses = 4
	// fluidRateEps is the convergence threshold in bytes/s.
	fluidRateEps = 1e-6
)

// refreshFluid re-solves all fluid rates: it settles every interface's
// backlog integration and every flow's accounting at the old rates,
// then propagates each active flow's rate along its current path —
// applying fluid-aware ingress filters and attenuating by each hop's
// service share — iterating to a fixed point. Called on every rate
// change and topology transition.
func (n *Network) refreshFluid() {
	if len(n.fluidFlows) == 0 && len(n.fluidIfaces) == 0 {
		return
	}
	now := n.k.Now()
	for _, ifc := range n.fluidIfaces {
		ifc.fluid.sync(now)
	}
	for _, f := range n.fluidFlows {
		f.account(now)
	}
	for pass := 0; pass < fluidMaxPasses; pass++ {
		// Each pass is a fresh generation: shared policer budgets
		// reset, then flows consume them again in deterministic order.
		n.fluidGen++
		// fluidIfaces can grow while walking (first time a path
		// crosses an interface); the index loop picks new ones up.
		for i := 0; i < len(n.fluidIfaces); i++ {
			n.fluidIfaces[i].fluid.beginPass()
		}
		for _, f := range n.fluidFlows {
			n.walkFluid(f)
		}
		stable := true
		for _, ifc := range n.fluidIfaces {
			fl := ifc.fluid
			if math.Abs(fl.passEF-fl.prevEF) > fluidRateEps ||
				math.Abs(fl.passBE-fl.prevBE) > fluidRateEps {
				stable = false
				break
			}
		}
		if stable {
			break
		}
	}
	rec := n.k.Metrics().Events()
	for _, ifc := range n.fluidIfaces {
		fl := ifc.fluid
		fl.efIn, fl.beIn = fl.passEF, fl.passBE
		if fl.passChunk > 0 {
			fl.chunk = fl.passChunk
		}
	}
	for _, f := range n.fluidFlows {
		if f.active {
			rec.Emit(metrics.EvFluidRate, f.name,
				int64(f.rate), int64(8*f.deliveredBps), int64(f.hops))
		}
	}
}

// walkFluid propagates one flow's rate along its path for the current
// solver pass, accumulating per-interface lane rates.
func (n *Network) walkFluid(f *FluidFlow) {
	f.deliveredBps, f.hops = 0, 0
	if !f.active {
		return
	}
	comps := append(n.fluidComps[:0], FluidComponent{Rate: float64(f.rate) / 8, DSCP: f.dscp})
	n.fluidComps = comps
	node := f.src
	var in *Iface
	chunk := float64(f.chunk)
	for hop := 0; hop < len(n.nodes)+1; hop++ {
		if in != nil {
			comps = applyFluidFilters(n.fluidGen, in, f.key, comps)
			if len(comps) == 0 {
				return
			}
		}
		if node == f.dst {
			for _, c := range comps {
				f.deliveredBps += c.Rate
			}
			return
		}
		out := node.RouteTo(f.dst.addr)
		if out == nil {
			return
		}
		fl := n.ensureFluid(out)
		for _, c := range comps {
			fl.addPass(c, chunk)
		}
		f.hops++
		if out.link.down {
			// The flow's bytes die at the down link; nothing arrives
			// downstream until topology notification reroutes it.
			return
		}
		live := comps[:0]
		for _, c := range comps {
			c.Rate *= fl.prevShare(c.DSCP)
			if c.Rate > 0 {
				live = append(live, c)
			}
		}
		comps = live
		if len(comps) == 0 {
			return
		}
		in = out.peer()
		node = in.node
	}
}

// applyFluidFilters runs the interface's fluid-aware ingress filters
// over the flow's components.
func applyFluidFilters(gen uint64, in *Iface, key FlowKey, comps []FluidComponent) []FluidComponent {
	for _, flt := range in.ingress {
		ff, ok := flt.(FluidFilter)
		if !ok {
			continue
		}
		comps = ff.FilterFluid(gen, key, comps)
		if len(comps) == 0 {
			return comps
		}
	}
	return comps
}

// sync integrates the fluid backlogs forward to now. The interval
// since the previous sync is guaranteed to have constant drain state:
// every transition that changes it (packet tx start/end, link up/down,
// rate change) syncs first.
func (fl *ifaceFluid) sync(now time.Duration) {
	dt := (now - fl.last).Seconds()
	if dt <= 0 {
		return
	}
	fl.last = now
	if fl.efIn == 0 && fl.beIn == 0 && fl.efQ == 0 && fl.beQ == 0 {
		return
	}
	c := 0.0
	if !fl.ifc.link.down && !fl.ifc.transmitting {
		c = float64(fl.ifc.link.rate) / 8
	}
	// Expedited lane first: it owns the full service rate until its
	// backlog empties.
	tEF := 0.0 // time the EF lane stops consuming the full rate
	if fl.efQ > 0 {
		if net := fl.efIn - c; net < 0 {
			tEF = math.Min(dt, fl.efQ/-net)
		} else {
			tEF = dt
		}
	}
	fl.lossBytes += laneStep(&fl.efQ, fl.efIn, c, fl.efCap, dt)
	// Best-effort lane: no service while the EF backlog drains, then
	// whatever the EF inflow leaves.
	if tEF > 0 {
		fl.lossBytes += laneStep(&fl.beQ, fl.beIn, 0, fl.beCap, tEF)
	}
	if rest := dt - tEF; rest > 0 {
		fl.lossBytes += laneStep(&fl.beQ, fl.beIn, c-math.Min(fl.efIn, c), fl.beCap, rest)
	}
	if d := int64(fl.lossBytes) - fl.lossCredited; d > 0 {
		fl.mLoss.Add(d)
		fl.lossCredited += d
	}
}

// laneStep advances one lane by dt seconds given a constant inflow,
// service rate, and backlog cap (all bytes/s resp. bytes). It returns
// the bytes lost to the cap.
func laneStep(q *float64, in, srv, capacity, dt float64) (lost float64) {
	net := in - srv
	if net <= 0 {
		if *q > 0 {
			tEmpty := dt
			if net < 0 {
				tEmpty = math.Min(dt, *q/-net)
			}
			if tEmpty >= dt {
				*q += net * dt
				if *q < 0 {
					*q = 0
				}
				return 0
			}
			*q = 0
		}
		return 0
	}
	if *q >= capacity {
		*q = capacity
		return net * dt
	}
	tHit := (capacity - *q) / net
	if tHit >= dt {
		*q += net * dt
		return 0
	}
	*q = capacity
	return net * (dt - tHit)
}

// headWait returns the extra delay the head-of-line packet must spend
// behind fluid traffic before the transmitter may serialize it, and
// whether that head is in the expedited band. Call after sync.
//
// Two terms: the residual of the fluid chunk "on the wire" (half a
// chunk in expectation, scaled by fluid utilization when there is no
// backlog), and the fluid backlog that precedes the packet — only the
// expedited lane's backlog for an expedited head (strict priority),
// both lanes for a best-effort head (FIFO within the band, behind the
// expedited lane).
//
// chained marks a service-completion instant: the previous foreground
// packet just finished, so no fluid chunk can be mid-service and the
// residual term vanishes. This is what makes a queued burst of
// expedited packets transmit contiguously under strict priority, as
// it does packet-level — background interleaves only once per burst,
// when a packet arrives to an idle wire.
func (fl *ifaceFluid) headWait(chained bool) (time.Duration, bool) {
	c := float64(fl.ifc.link.rate) / 8
	if c <= 0 {
		return 0, false
	}
	efHead := false
	if fl.banded && fl.eq != nil {
		if b, _ := fl.eq.BandOccupancy(true); b > 0 {
			efHead = true
		}
	}
	ahead := fl.efQ + fl.beQ
	if efHead {
		ahead = fl.efQ
	}
	totalIn := fl.efIn + fl.beIn
	var resid float64
	if !chained {
		tau := fl.chunk / c
		if fl.efQ+fl.beQ > 0 {
			resid = tau / 2
		} else if totalIn > 0 {
			resid = math.Min(1, totalIn/c) * tau / 2
		}
	}
	w := resid + ahead/c
	if w <= 0 {
		return 0, efHead
	}
	return time.Duration(w * float64(time.Second)), efHead
}

// fluidSync settles the interface's fluid integration at the current
// time, if fluid is attached. Call before any transition that changes
// the drain state.
func (i *Iface) fluidSync() {
	if i.fluid != nil {
		i.fluid.sync(i.node.net.k.Now())
	}
}

// fluidAdmits applies the fluid share of the admission decision: a
// packet is rejected when the analytic fluid backlog plus the queued
// packet bytes in its band would overflow the band's capacity. This is
// the deterministic counterpart of the drop probability the fluid
// occupancy induces at a finite buffer.
func (i *Iface) fluidAdmits(p *Packet) bool {
	fl := i.fluid
	if fl == nil {
		return true
	}
	fl.sync(i.node.net.k.Now())
	if fl.expedited(p.DSCP) {
		b, _ := fl.eq.BandOccupancy(true)
		return fl.efQ+float64(b+p.Size) <= fl.efCap
	}
	if fl.banded && fl.eq != nil {
		b, _ := fl.eq.BandOccupancy(false)
		return fl.beQ+float64(b+p.Size) <= fl.beCap
	}
	return fl.beQ+float64(i.queue.Bytes()+p.Size) <= fl.beCap
}

// ifaceFluidWaitDone fires when the head-of-line packet's fluid wait
// elapses: the packet is granted the next transmission opportunity.
func ifaceFluidWaitDone(a0, _ any) {
	i := a0.(*Iface)
	fl := i.fluid
	fl.waiting = false
	fl.granted = true
	i.tryTransmit()
}
