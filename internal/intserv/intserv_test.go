package intserv

import (
	"testing"
	"testing/quick"
	"time"

	"mpichgq/internal/netsim"
	"mpichgq/internal/quicktest"
	"mpichgq/internal/sim"
	"mpichgq/internal/units"
)

func TestWFQFairShares(t *testing.T) {
	// Two reserved flows at 3:1 weights plus best effort, all
	// backlogged on a 4 Mb/s link: service must follow the weights.
	k := sim.New(1)
	n := netsim.New(k)
	a, b := n.AddNode("a"), n.AddNode("b")
	l := n.Connect(a, b, 4*units.Mbps, time.Millisecond)
	n.ComputeRoutes()
	w := NewWFQ(4*units.Mbps, units.MB)
	l.A().SetQueue(w)

	f1 := netsim.FlowKey{Src: a.Addr(), Dst: b.Addr(), SrcPort: 1, DstPort: 1, Proto: netsim.ProtoUDP}
	f2 := netsim.FlowKey{Src: a.Addr(), Dst: b.Addr(), SrcPort: 2, DstPort: 2, Proto: netsim.ProtoUDP}
	if err := w.AddFlow(f1, 3*units.Mbps); err != nil {
		t.Fatal(err)
	}
	if err := w.AddFlow(f2, units.Mbps); err != nil {
		t.Fatal(err)
	}
	var got [3]int64 // bytes per flow (f1, f2, best effort)
	b.Handle(netsim.ProtoUDP, handlerFunc(func(p *netsim.Packet) {
		switch p.SrcPort {
		case 1:
			got[0] += int64(p.Size)
		case 2:
			got[1] += int64(p.Size)
		default:
			got[2] += int64(p.Size)
		}
	}))
	// Saturate all three classes.
	mk := func(sport netsim.Port) *netsim.Packet {
		return &netsim.Packet{Src: a.Addr(), Dst: b.Addr(), SrcPort: sport, DstPort: sport, Proto: netsim.ProtoUDP, Size: 1000}
	}
	k.Spawn("src", func(ctx *sim.Ctx) {
		for ctx.Now() < 10*time.Second {
			a.Send(mk(1))
			a.Send(mk(2))
			a.Send(mk(9))
			ctx.Sleep(time.Millisecond) // 24 Mb/s offered total, 6x the link
		}
	})
	if err := k.RunUntil(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	// Weights 3 : 1 : leftover(0.04Mb floor->1%). f1/f2 ≈ 3.
	ratio := float64(got[0]) / float64(got[1])
	if ratio < 2.5 || ratio > 3.5 {
		t.Fatalf("f1/f2 service ratio = %.2f, want ~3", ratio)
	}
	if got[2] == 0 {
		t.Fatal("best effort fully starved; WFQ should leave it a trickle")
	}
}

func TestWFQAdmissionLimit(t *testing.T) {
	w := NewWFQ(10*units.Mbps, units.MB)
	f := func(sport netsim.Port) netsim.FlowKey {
		return netsim.FlowKey{Src: 1, Dst: 2, SrcPort: sport, DstPort: 1, Proto: netsim.ProtoTCP}
	}
	if err := w.AddFlow(f(1), 6*units.Mbps); err != nil {
		t.Fatal(err)
	}
	if err := w.AddFlow(f(2), 6*units.Mbps); err == nil {
		t.Fatal("6+6 over a 10 Mb/s link should fail")
	}
	if err := w.AddFlow(f(1), units.Mbps); err == nil {
		t.Fatal("duplicate flow should fail")
	}
	if !w.RemoveFlow(f(1)) || w.RemoveFlow(f(1)) {
		t.Fatal("remove semantics broken")
	}
	if w.FlowCount() != 0 {
		t.Fatal("flow count should be zero")
	}
}

// Work conservation: with only one backlogged flow, it gets the whole
// link regardless of its small reservation.
func TestWFQWorkConserving(t *testing.T) {
	k := sim.New(1)
	n := netsim.New(k)
	a, b := n.AddNode("a"), n.AddNode("b")
	l := n.Connect(a, b, 10*units.Mbps, time.Millisecond)
	n.ComputeRoutes()
	w := NewWFQ(10*units.Mbps, units.MB)
	l.A().SetQueue(w)
	f1 := netsim.FlowKey{Src: a.Addr(), Dst: b.Addr(), SrcPort: 1, DstPort: 1, Proto: netsim.ProtoUDP}
	w.AddFlow(f1, units.Mbps) // only 1 Mb/s reserved
	var rx int64
	b.Handle(netsim.ProtoUDP, handlerFunc(func(p *netsim.Packet) { rx += int64(p.Size) }))
	k.Spawn("src", func(ctx *sim.Ctx) {
		for ctx.Now() < 5*time.Second {
			a.Send(&netsim.Packet{Src: a.Addr(), Dst: b.Addr(), SrcPort: 1, DstPort: 1, Proto: netsim.ProtoUDP, Size: 1000})
			ctx.Sleep(500 * time.Microsecond) // 16 Mb/s offered
		}
	})
	if err := k.RunUntil(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	rate := units.RateOf(units.ByteSize(rx), 5*time.Second)
	if rate < 9*units.Mbps {
		t.Fatalf("lone flow got %v of a 10 Mb/s link, want ~all of it", rate)
	}
}

// Property: WFQ conserves packets — everything enqueued is eventually
// dequeued exactly once, in a valid order.
func TestWFQConservationProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := sim.NewRNG(seed)
		w := NewWFQ(10*units.Mbps, units.MB)
		flows := []netsim.FlowKey{
			{Src: 1, Dst: 2, SrcPort: 1, DstPort: 1, Proto: netsim.ProtoUDP},
			{Src: 1, Dst: 2, SrcPort: 2, DstPort: 2, Proto: netsim.ProtoUDP},
		}
		w.AddFlow(flows[0], 4*units.Mbps)
		w.AddFlow(flows[1], 2*units.Mbps)
		in, out := 0, 0
		for op := 0; op < 300; op++ {
			if rng.Intn(2) == 0 {
				p := &netsim.Packet{
					Src: 1, Dst: 2, Proto: netsim.ProtoUDP,
					SrcPort: netsim.Port(rng.Intn(4)), DstPort: netsim.Port(rng.Intn(4)),
					Size: units.ByteSize(rng.Intn(1400) + 100),
				}
				p.SrcPort = p.DstPort // align flow keys occasionally
				if w.Enqueue(p) {
					in++
				}
			} else if w.Dequeue() != nil {
				out++
			}
		}
		for w.Dequeue() != nil {
			out++
		}
		return in == out && w.Len() == 0 && w.Bytes() == 0
	}
	if err := quick.Check(f, quicktest.Config(t, 50)); err != nil {
		t.Fatal(err)
	}
}

// linear builds src -- r1 -- r2 -- dst.
// totalState is the number of per-flow reservations held across every
// router.
func totalState(r *RSVP) int {
	n := 0
	for _, q := range r.queues {
		n += q.FlowCount()
	}
	return n
}

// handlerFunc adapts a function to the netsim.Handler interface.
type handlerFunc func(p *netsim.Packet)

func (f handlerFunc) HandlePacket(p *netsim.Packet) { f(p) }

func linear(k *sim.Kernel) (*netsim.Network, *netsim.Node, *netsim.Node, *netsim.Node, *netsim.Node) {
	n := netsim.New(k)
	src, r1, r2, dst := n.AddNode("src"), n.AddNode("r1"), n.AddNode("r2"), n.AddNode("dst")
	n.Connect(src, r1, 100*units.Mbps, time.Millisecond)
	n.Connect(r1, r2, 10*units.Mbps, time.Millisecond)
	n.Connect(r2, dst, 100*units.Mbps, time.Millisecond)
	n.ComputeRoutes()
	return n, src, r1, r2, dst
}

func TestRSVPInstallsStatePerHop(t *testing.T) {
	k := sim.New(1)
	n, src, r1, r2, dst := linear(k)
	r := NewRSVP(n)
	flow := netsim.FlowKey{Src: src.Addr(), Dst: dst.Addr(), SrcPort: 5, DstPort: 5, Proto: netsim.ProtoUDP}
	s, err := r.Reserve(flow, 2*units.Mbps)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.hops) != 3 {
		t.Fatalf("hops = %d, want 3 (src, r1, r2 egresses)", len(s.hops))
	}
	if r.StateAt(r1) != 1 || r.StateAt(r2) != 1 {
		t.Fatal("core routers should each hold one flow entry")
	}
	s.Teardown()
	if totalState(r) != 0 {
		t.Fatal("teardown left state behind")
	}
	if !s.done {
		t.Fatal("session should be inactive after teardown")
	}
}

func TestRSVPAdmissionRollsBack(t *testing.T) {
	k := sim.New(1)
	n, src, _, _, dst := linear(k)
	r := NewRSVP(n)
	mk := func(port netsim.Port) netsim.FlowKey {
		return netsim.FlowKey{Src: src.Addr(), Dst: dst.Addr(), SrcPort: port, DstPort: port, Proto: netsim.ProtoUDP}
	}
	// Bottleneck reservable: 0.9 * 10 = 9 Mb/s.
	if _, err := r.Reserve(mk(1), 6*units.Mbps); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Reserve(mk(2), 6*units.Mbps); err == nil {
		t.Fatal("over-subscription should fail")
	}
	// The failed attempt must not leave partial state on the first
	// hop (access link admits, bottleneck refuses, rollback).
	if totalState(r) != 3 {
		t.Fatalf("state = %d, want only the first session's 3 hops", totalState(r))
	}
}

func TestRSVPSoftStateExpires(t *testing.T) {
	k := sim.New(1)
	n, src, _, _, dst := linear(k)
	r := NewRSVP(n)
	flow := netsim.FlowKey{Src: src.Addr(), Dst: dst.Addr(), SrcPort: 5, DstPort: 5, Proto: netsim.ProtoUDP}
	s, err := r.Reserve(flow, 2*units.Mbps)
	if err != nil {
		t.Fatal(err)
	}
	s.AutoRefresh = false // sender dies; refreshes stop
	k.RunUntil(4 * refreshPeriod)
	if !s.done || totalState(r) != 0 {
		t.Fatalf("soft state should expire without refreshes (state=%d)", totalState(r))
	}
}

func TestRSVPRefreshKeepsStateAlive(t *testing.T) {
	k := sim.New(1)
	n, src, _, _, dst := linear(k)
	r := NewRSVP(n)
	flow := netsim.FlowKey{Src: src.Addr(), Dst: dst.Addr(), SrcPort: 5, DstPort: 5, Proto: netsim.ProtoUDP}
	s, err := r.Reserve(flow, 2*units.Mbps)
	if err != nil {
		t.Fatal(err)
	}
	k.RunUntil(20 * refreshPeriod)
	if s.done || totalState(r) != 3 {
		t.Fatal("auto-refreshed state should persist")
	}
}

func TestRSVPProtectsFlowUnderContention(t *testing.T) {
	// The IS baseline must actually work: a reserved UDP stream keeps
	// its rate while a blast fills the best-effort share.
	k := sim.New(1)
	n, src, _, _, dst := linear(k)
	r := NewRSVP(n)
	prem := netsim.FlowKey{Src: src.Addr(), Dst: dst.Addr(), SrcPort: 5, DstPort: 5, Proto: netsim.ProtoUDP}
	if _, err := r.Reserve(prem, 4*units.Mbps); err != nil {
		t.Fatal(err)
	}
	var premBytes int64
	dst.Handle(netsim.ProtoUDP, handlerFunc(func(p *netsim.Packet) {
		if p.SrcPort == 5 {
			premBytes += int64(p.Size)
		}
	}))
	k.Spawn("prem", func(ctx *sim.Ctx) {
		gap := (3500 * units.Kbps).TimeToSend(1028)
		for ctx.Now() < 10*time.Second {
			src.Send(&netsim.Packet{Src: src.Addr(), Dst: dst.Addr(), SrcPort: 5, DstPort: 5, Proto: netsim.ProtoUDP, Size: 1028})
			ctx.Sleep(gap)
		}
	})
	k.Spawn("blast", func(ctx *sim.Ctx) {
		gap := (50 * units.Mbps).TimeToSend(1028)
		for ctx.Now() < 10*time.Second {
			src.Send(&netsim.Packet{Src: src.Addr(), Dst: dst.Addr(), SrcPort: 9, DstPort: 9, Proto: netsim.ProtoUDP, Size: 1028})
			ctx.Sleep(gap)
		}
	})
	if err := k.RunUntil(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	rate := units.RateOf(units.ByteSize(premBytes), 10*time.Second)
	if rate < 3*units.Mbps {
		t.Fatalf("reserved flow got %v, want ~3.5 Mb/s", rate)
	}
}
