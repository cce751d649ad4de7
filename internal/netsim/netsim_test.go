package netsim

import (
	"errors"
	"testing"
	"time"

	"mpichgq/internal/metrics"
	"mpichgq/internal/sim"
	"mpichgq/internal/units"
)

// handlerFunc adapts a function to the Handler interface.
type handlerFunc func(p *Packet)

func (f handlerFunc) HandlePacket(p *Packet) { f(p) }

// filterFunc adapts a function to the IngressFilter interface.
type filterFunc func(p *Packet) *Packet

func (f filterFunc) Filter(p *Packet) *Packet { return f(p) }

// ifaceCount reads one of the interface's registry counters
// (netsim_tx_packets_total, netsim_egress_drops_total, ...).
func ifaceCount(i *Iface, name string) int64 {
	v, _ := i.node.net.k.Metrics().CounterValue(name, "iface", i.label)
	return v
}

// nodeTx sums the packets a node's interfaces transmitted.
func nodeTx(nd *Node) int64 {
	var n int64
	for _, i := range nd.Ifaces() {
		n += ifaceCount(i, "netsim_tx_packets_total")
	}
	return n
}

// twoNodes builds A --- B at the given rate and delay.
func twoNodes(rate units.BitRate, delay time.Duration) (*sim.Kernel, *Network, *Node, *Node) {
	k := sim.New(1)
	n := New(k)
	a := n.AddNode("a")
	b := n.AddNode("b")
	n.Connect(a, b, rate, delay)
	n.ComputeRoutes()
	return k, n, a, b
}

func TestPacketDelivery(t *testing.T) {
	k, _, a, b := twoNodes(8*units.Mbps, 1*time.Millisecond)
	var got *Packet
	var at time.Duration
	b.Handle(ProtoUDP, handlerFunc(func(p *Packet) {
		got = p
		at = k.Now()
	}))
	// 1000-byte payload => 1028 bytes on wire. At 8 Mb/s that is
	// 1.028 ms serialization + 1 ms propagation.
	a.Send(&Packet{
		Src: a.Addr(), Dst: b.Addr(), Proto: ProtoUDP,
		Size: 1028, PayloadLen: 1000,
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got == nil {
		t.Fatal("packet not delivered")
	}
	want := 1028*time.Microsecond + time.Millisecond
	if at != want {
		t.Fatalf("delivered at %v, want %v", at, want)
	}
}

func TestSerializationSequencing(t *testing.T) {
	// Two packets sent back to back must be spaced by serialization
	// time, not delivered together.
	k, _, a, b := twoNodes(8*units.Mbps, 0)
	var arrivals []time.Duration
	b.Handle(ProtoUDP, handlerFunc(func(p *Packet) {
		arrivals = append(arrivals, k.Now())
	}))
	for i := 0; i < 2; i++ {
		a.Send(&Packet{Src: a.Addr(), Dst: b.Addr(), Proto: ProtoUDP, Size: 1000})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(arrivals) != 2 {
		t.Fatalf("got %d arrivals, want 2", len(arrivals))
	}
	if arrivals[1]-arrivals[0] != time.Millisecond {
		t.Fatalf("spacing = %v, want 1ms", arrivals[1]-arrivals[0])
	}
}

func TestMultiHopForwarding(t *testing.T) {
	k := sim.New(1)
	n := New(k)
	a := n.AddNode("a")
	r := n.AddNode("r")
	b := n.AddNode("b")
	n.Connect(a, r, 10*units.Mbps, time.Millisecond)
	n.Connect(r, b, 10*units.Mbps, time.Millisecond)
	n.ComputeRoutes()
	delivered := false
	b.Handle(ProtoUDP, handlerFunc(func(p *Packet) { delivered = true }))
	a.Send(&Packet{Src: a.Addr(), Dst: b.Addr(), Proto: ProtoUDP, Size: 500})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !delivered {
		t.Fatal("packet not forwarded across router")
	}
	if got := nodeTx(r); got != 1 {
		t.Fatalf("router forwarded %d packets, want 1", got)
	}
}

func TestShortestPathRouting(t *testing.T) {
	// Diamond: a-r1-b and a-r2-r3-b; traffic must take the short arm.
	k := sim.New(1)
	n := New(k)
	a, r1, r2, r3, b := n.AddNode("a"), n.AddNode("r1"), n.AddNode("r2"), n.AddNode("r3"), n.AddNode("b")
	n.Connect(a, r1, 10*units.Mbps, time.Millisecond)
	n.Connect(r1, b, 10*units.Mbps, time.Millisecond)
	n.Connect(a, r2, 10*units.Mbps, time.Millisecond)
	n.Connect(r2, r3, 10*units.Mbps, time.Millisecond)
	n.Connect(r3, b, 10*units.Mbps, time.Millisecond)
	n.ComputeRoutes()
	b.Handle(ProtoUDP, handlerFunc(func(p *Packet) {}))
	a.Send(&Packet{Src: a.Addr(), Dst: b.Addr(), Proto: ProtoUDP, Size: 500})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got := nodeTx(r1); got != 1 {
		t.Fatalf("short path carried %d packets, want 1", got)
	}
	if nodeTx(r2) != 0 || nodeTx(r3) != 0 {
		t.Fatal("long path carried traffic")
	}
}

func TestNoRouteDrop(t *testing.T) {
	k := sim.New(1)
	n := New(k)
	a := n.AddNode("a")
	island := n.AddNode("island") // unconnected
	b := n.AddNode("b")
	n.Connect(a, b, 10*units.Mbps, 0)
	n.ComputeRoutes()
	err := a.Send(&Packet{Src: a.Addr(), Dst: island.Addr(), Proto: ProtoUDP, Size: 100})
	var noRoute *NoRouteError
	if !errors.As(err, &noRoute) {
		t.Fatalf("send to unreachable node: err = %v, want *NoRouteError", err)
	}
	if noRoute.Node != "a" || noRoute.Dst != island.Addr() {
		t.Fatalf("NoRouteError = %+v", noRoute)
	}
	if v, ok := k.Metrics().CounterValue("netsim_no_route_drops_total", "node", "a"); !ok || v != 1 {
		t.Fatalf("no-route counter = %d, %v", v, ok)
	}
	evs := k.Metrics().Events().Snapshot()
	found := false
	for _, e := range evs {
		if e.Type == metrics.EvNoRoute && e.Subject == "a" && e.V1 == int64(island.Addr()) {
			found = true
		}
	}
	if !found {
		t.Fatalf("no EvNoRoute event in %+v", evs)
	}
}

func TestDropTailOverflow(t *testing.T) {
	q := NewDropTail(2500)
	p := func(size units.ByteSize) *Packet { return &Packet{Size: size} }
	if !q.Enqueue(p(1000)) || !q.Enqueue(p(1000)) {
		t.Fatal("first two packets should fit")
	}
	if q.Enqueue(p(1000)) {
		t.Fatal("third packet should be dropped")
	}
	if !q.Enqueue(p(500)) {
		t.Fatal("small packet should still fit")
	}
	if q.Len() != 3 || q.Bytes() != 2500 {
		t.Fatalf("len=%d bytes=%d, want 3/2500", q.Len(), q.Bytes())
	}
	if got := q.Dequeue(); got.Size != 1000 {
		t.Fatalf("FIFO violated: got %d", got.Size)
	}
}

func TestDropTailEmptyDequeue(t *testing.T) {
	q := NewDropTail(1000)
	if q.Dequeue() != nil {
		t.Fatal("empty dequeue should return nil")
	}
}

func TestEgressQueueDropUnderOverload(t *testing.T) {
	// Blast a slow link: most packets must be dropped at the egress
	// queue, and the interface's egress-drop counter must count them.
	k, _, a, b := twoNodes(1*units.Mbps, 0)
	received := 0
	b.Handle(ProtoUDP, handlerFunc(func(p *Packet) { received++ }))
	for i := 0; i < 200; i++ {
		a.Send(&Packet{Src: a.Addr(), Dst: b.Addr(), Proto: ProtoUDP, Size: 1500})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	drops := int(ifaceCount(a.Ifaces()[0], "netsim_egress_drops_total"))
	if drops == 0 {
		t.Fatal("expected egress drops under overload")
	}
	if received+drops != 200 {
		t.Fatalf("received %d + dropped %d != 200", received, drops)
	}
}

func TestIngressFilterDropAndRemark(t *testing.T) {
	k, _, a, b := twoNodes(10*units.Mbps, 0)
	// Filter on b's interface: drop odd-size packets, remark the rest
	// to EF.
	bIface := b.Ifaces()[0]
	bIface.AddIngress(filterFunc(func(p *Packet) *Packet {
		if p.Size%2 == 1 {
			return nil
		}
		p.DSCP = DSCPEF
		return p
	}))
	var got []*Packet
	b.Handle(ProtoUDP, handlerFunc(func(p *Packet) { got = append(got, p) }))
	a.Send(&Packet{Src: a.Addr(), Dst: b.Addr(), Proto: ProtoUDP, Size: 100})
	a.Send(&Packet{Src: a.Addr(), Dst: b.Addr(), Proto: ProtoUDP, Size: 101})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("got %d packets, want 1", len(got))
	}
	if got[0].DSCP != DSCPEF {
		t.Fatal("filter did not remark packet")
	}
	if got := ifaceCount(bIface, "netsim_ingress_drops_total"); got != 1 {
		t.Fatalf("ingress drops = %d, want 1", got)
	}
}

func TestDuplicateNodeNamePanics(t *testing.T) {
	k := sim.New(1)
	n := New(k)
	n.AddNode("x")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	n.AddNode("x")
}

func TestLoopbackDelivery(t *testing.T) {
	k, _, a, _ := twoNodes(units.Mbps, time.Millisecond)
	got := false
	a.Handle(ProtoUDP, handlerFunc(func(p *Packet) { got = true }))
	if err := a.Send(&Packet{Src: a.Addr(), Dst: a.Addr(), Proto: ProtoUDP, Size: 100}); err != nil {
		t.Fatalf("loopback send failed: %v", err)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !got {
		t.Fatal("loopback packet not delivered")
	}
	// Loopback must not touch the link.
	if ifaceCount(a.Ifaces()[0], "netsim_tx_packets_total") != 0 {
		t.Fatal("loopback used the link")
	}
}

func TestLinkDownPausesTransmit(t *testing.T) {
	k, n, a, b := twoNodes(10*units.Mbps, time.Millisecond)
	l := n.Links()[0]
	received := 0
	b.Handle(ProtoUDP, handlerFunc(func(p *Packet) { received++ }))
	send := func() {
		a.Send(&Packet{Src: a.Addr(), Dst: b.Addr(), Proto: ProtoUDP, Size: 500})
	}
	send()
	var queuedAtOutage int
	k.After(time.Second, func() {
		l.SetUp(false)
		if l.Up() {
			t.Error("link should be down")
		}
		send() // queued, not lost: transmitter is paused
		queuedAtOutage = a.Ifaces()[0].queue.Len()
	})
	k.After(2*time.Second, func() { l.SetUp(true); send() })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if queuedAtOutage != 1 {
		t.Fatalf("queued during outage = %d, want 1", queuedAtOutage)
	}
	if received != 3 {
		t.Fatalf("received %d packets, want 3 (queued packet resumes on SetUp)", received)
	}
	if got := ifaceCount(l.A(), "netsim_down_drops_total") + ifaceCount(l.B(), "netsim_down_drops_total"); got != 0 {
		t.Fatalf("down drops = %d, want 0 (no packet was mid-frame at the transition)", got)
	}
}
