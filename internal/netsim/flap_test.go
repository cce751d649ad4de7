package netsim

import (
	"testing"
	"time"

	"mpichgq/internal/metrics"
	"mpichgq/internal/sim"
	"mpichgq/internal/units"
)

// countEvents returns how many flight-recorder events of type ty were
// emitted for subject.
func countEvents(k *sim.Kernel, ty metrics.EventType, subject string) int {
	n := 0
	for _, e := range k.Metrics().Events().Snapshot() {
		if e.Type == ty && e.Subject == subject {
			n++
		}
	}
	return n
}

func TestLinkDownLosesInFlightPacket(t *testing.T) {
	// At 10 Mb/s a 500-byte packet serializes in 400 µs. Cutting the
	// link 200 µs in catches it mid-frame: it must be lost and the
	// loss attributed to the transmitting direction only.
	k, n, a, b := twoNodes(10*units.Mbps, time.Millisecond)
	l := n.Links()[0]
	received := 0
	b.Handle(ProtoUDP, handlerFunc(func(p *Packet) { received++ }))
	a.Send(&Packet{Src: a.Addr(), Dst: b.Addr(), Proto: ProtoUDP, Size: 500})
	k.After(200*time.Microsecond, func() { l.SetUp(false) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if received != 0 {
		t.Fatalf("received %d packets, want 0", received)
	}
	if got := ifaceCount(l.A(), "netsim_down_drops_total"); got != 1 {
		t.Fatalf("A-side down drops = %d, want 1", got)
	}
	if got := ifaceCount(l.B(), "netsim_down_drops_total"); got != 0 {
		t.Fatalf("B-side down drops = %d, want 0", got)
	}
	// The loss must show up in the per-interface drop metric.
	reg := k.Metrics()
	if got, ok := reg.CounterValue("netsim_down_drops_total", "iface", l.A().String()); !ok || got != 1 {
		t.Fatalf("netsim_down_drops_total{%s} = %v (ok=%v), want 1", l.A(), got, ok)
	}
}

func TestSetUpEmitsEventsOncePerTransition(t *testing.T) {
	k, n, a, b := twoNodes(10*units.Mbps, time.Millisecond)
	l := n.Links()[0]
	_, _ = a, b
	k.After(time.Second, func() {
		l.SetUp(false)
		l.SetUp(false) // repeated call: no transition, no event
	})
	k.After(2*time.Second, func() {
		l.SetUp(true)
		l.SetUp(true)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got := countEvents(k, metrics.EvLinkDown, l.Name()); got != 1 {
		t.Fatalf("link.down events = %d, want 1", got)
	}
	if got := countEvents(k, metrics.EvLinkUp, l.Name()); got != 1 {
		t.Fatalf("link.up events = %d, want 1", got)
	}
}

func TestLinkDownEventRecordsQueueDepth(t *testing.T) {
	k, n, a, b := twoNodes(units.Mbps, time.Millisecond)
	l := n.Links()[0]
	b.Handle(ProtoUDP, handlerFunc(func(p *Packet) {}))
	// 1000 bytes at 1 Mb/s = 8 ms per packet; queue three and cut the
	// link at 1 ms so one is in flight and two are still queued.
	for i := 0; i < 3; i++ {
		a.Send(&Packet{Src: a.Addr(), Dst: b.Addr(), Proto: ProtoUDP, Size: 1000})
	}
	k.After(time.Millisecond, func() { l.SetUp(false) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for _, e := range k.Metrics().Events().Snapshot() {
		if e.Type == metrics.EvLinkDown && e.Subject == l.Name() {
			if e.V1 != 2 || e.V2 != 0 {
				t.Fatalf("link.down queue depths = (%d,%d), want (2,0)", e.V1, e.V2)
			}
			return
		}
	}
	t.Fatal("no link.down event recorded")
}

// diamond builds src — r1 — dst with a parallel src — r2 — dst path.
// r1 is connected first, so BFS tie-breaking prefers it while both
// paths are healthy.
func diamond() (*sim.Kernel, *Network, *Node, *Node, *Node, *Node) {
	k := sim.New(1)
	n := New(k)
	src := n.AddNode("src")
	dst := n.AddNode("dst")
	r1 := n.AddNode("r1")
	r2 := n.AddNode("r2")
	n.Connect(src, r1, 10*units.Mbps, time.Millisecond)
	n.Connect(r1, dst, 10*units.Mbps, time.Millisecond)
	n.Connect(src, r2, units.Mbps, 5*time.Millisecond)
	n.Connect(r2, dst, units.Mbps, 5*time.Millisecond)
	n.ComputeRoutes()
	return k, n, src, dst, r1, r2
}

func TestComputeRoutesSkipsDownLinks(t *testing.T) {
	_, n, src, dst, r1, r2 := diamond()
	if via := src.RouteTo(dst.Addr()).Peer().Node(); via != r1 {
		t.Fatalf("healthy route via %s, want r1", via.Name())
	}
	n.Link("src-r1").SetUp(false)
	n.RecomputeRoutes()
	if via := src.RouteTo(dst.Addr()).Peer().Node(); via != r2 {
		t.Fatalf("post-failure route via %s, want r2", via.Name())
	}
	// Recovery: recompute returns to the preferred path.
	n.Link("src-r1").SetUp(true)
	n.RecomputeRoutes()
	if via := src.RouteTo(dst.Addr()).Peer().Node(); via != r1 {
		t.Fatalf("post-recovery route via %s, want r1", via.Name())
	}
}

func TestAutoRerouteFailsOver(t *testing.T) {
	k, n, src, dst, _, r2 := diamond()
	n.SetAutoReroute(true)
	received := 0
	dst.Handle(ProtoUDP, handlerFunc(func(p *Packet) { received++ }))
	send := func() {
		src.Send(&Packet{Src: src.Addr(), Dst: dst.Addr(), Proto: ProtoUDP, Size: 500})
	}
	var topoNotified int
	n.OnTopologyChange(func() { topoNotified++ })
	send()
	k.After(time.Second, func() {
		n.Link("src-r1").SetUp(false)
		if via := src.RouteTo(dst.Addr()).Peer().Node(); via != r2 {
			t.Errorf("auto-reroute chose %s, want r2", via.Name())
		}
		send()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if received != 2 {
		t.Fatalf("received %d packets, want 2 (second via backup path)", received)
	}
	if topoNotified != 1 {
		t.Fatalf("topology observers notified %d times, want 1", topoNotified)
	}
}
