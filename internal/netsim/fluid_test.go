package netsim

import (
	"testing"
	"time"

	"mpichgq/internal/sim"
	"mpichgq/internal/units"
)

// deliveredRate is the flow's end-to-end rate after attenuation.
func deliveredRate(f *FluidFlow) units.BitRate { return units.BitRate(8 * f.deliveredBps) }

// deliveredBytes is what the flow has delivered end to end so far.
func deliveredBytes(f *FluidFlow) units.ByteSize {
	f.account(f.net.k.Now())
	return units.ByteSize(f.deliveredBytes)
}

// fluidAt settles the interface's fluid state and returns its
// installed arrival rate, analytic backlog and cumulative loss.
func fluidAt(i *Iface) (rate units.BitRate, backlog, loss units.ByteSize) {
	fl := i.fluid
	fl.sync(i.node.net.k.Now())
	return units.BitRate(8 * (fl.efIn + fl.beIn)), units.ByteSize(fl.efQ + fl.beQ), units.ByteSize(fl.lossBytes)
}

// threeNodes builds A --- B --- C at the given per-link rates.
func threeNodes(r1, r2 units.BitRate) (*sim.Kernel, *Network, *Node, *Node, *Node) {
	k := sim.New(1)
	n := New(k)
	a := n.AddNode("a")
	b := n.AddNode("b")
	c := n.AddNode("c")
	n.Connect(a, b, r1, time.Millisecond)
	n.Connect(b, c, r2, time.Millisecond)
	n.ComputeRoutes()
	return k, n, a, b, c
}

func TestFluidFlowDeliversOfferedRateBelowCapacity(t *testing.T) {
	k, n, a, _, c := threeNodes(10*units.Mbps, 10*units.Mbps)
	f := n.NewFluidFlow("bg", a, c, 9000, 4*units.Mbps, 1000)
	f.Start()
	if err := k.RunUntil(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if got, want := deliveredRate(f), 4*units.Mbps; got != want {
		t.Fatalf("delivered rate %v, want %v", got, want)
	}
	// 4 Mb/s for 10 s = 5 MB offered and delivered (no loss anywhere).
	wantBytes := units.ByteSize(4_000_000 * 10 / 8)
	if got := deliveredBytes(f); got < wantBytes-1 || got > wantBytes+1 {
		t.Fatalf("delivered %v bytes, want ~%v", got, wantBytes)
	}
	if _, _, loss := fluidAt(a.Ifaces()[0]); loss != 0 {
		t.Fatalf("unexpected fluid loss %v at first hop", loss)
	}
}

func TestFluidFlowAttenuatedAtSlowLink(t *testing.T) {
	// 10 Mb/s access feeding a 2 Mb/s second hop: the backlog at b
	// fills its finite buffer, then 8 Mb/s of fluid is lost there and
	// 2 Mb/s arrives at c.
	k, n, a, b, c := threeNodes(10*units.Mbps, 2*units.Mbps)
	f := n.NewFluidFlow("bg", a, c, 9000, 10*units.Mbps, 1000)
	f.Start()
	if err := k.RunUntil(20 * time.Second); err != nil {
		t.Fatal(err)
	}
	if got, want := deliveredRate(f), 2*units.Mbps; got != want {
		t.Fatalf("delivered rate %v, want %v", got, want)
	}
	var bIface *Iface
	for _, ifc := range b.Ifaces() {
		if ifc.Link().Rate() == 2*units.Mbps {
			bIface = ifc
		}
	}
	_, backlog, loss := fluidAt(bIface)
	if backlog != DefaultQueueCap {
		t.Fatalf("bottleneck fluid backlog %v, want full buffer %v", backlog, DefaultQueueCap)
	}
	// After the buffer fills (~0.1 s), losses accrue at 8 Mb/s = 1 MB/s.
	if loss < 15*units.MB {
		t.Fatalf("bottleneck fluid loss %v, want >= 15 MB over ~19.9 s", loss)
	}
}

func TestFluidBackgroundDelaysForegroundPacket(t *testing.T) {
	// A packet crossing a hop with saturated fluid must wait for the
	// fluid backlog ahead of it; with no fluid it sails through.
	deliver := func(fluid bool) time.Duration {
		k, n, a, b := twoNodes(10*units.Mbps, 0)
		var at time.Duration
		b.Handle(ProtoUDP, handlerFunc(func(p *Packet) { at = k.Now() }))
		if fluid {
			f := n.NewFluidFlow("bg", a, b, 9000, 8*units.Mbps, 1000)
			f.Start()
			// Let fluid backlog build behind a half-full buffer.
			if err := k.RunUntil(time.Second); err != nil {
				t.Fatal(err)
			}
		} else {
			if err := k.RunUntil(time.Second); err != nil {
				t.Fatal(err)
			}
		}
		a.Send(&Packet{Src: a.Addr(), Dst: b.Addr(), Proto: ProtoUDP, Size: 1028})
		if err := k.RunUntil(10 * time.Second); err != nil {
			t.Fatal(err)
		}
		_ = n
		return at
	}
	clean := deliver(false)
	contended := deliver(true)
	if contended <= clean {
		t.Fatalf("fluid-contended delivery %v not later than clean %v", contended, clean)
	}
	// 8 Mb/s offered over a 10 Mb/s link leaves no standing backlog,
	// so the wait is the expectation residual (u*tau/2), well under a
	// full buffer drain.
	if contended-clean > 100*time.Millisecond {
		t.Fatalf("fluid wait %v implausibly large", contended-clean)
	}
}

func TestFluidBacklogRejectsForegroundPacket(t *testing.T) {
	// With the fluid backlog pinned at the buffer cap, a best-effort
	// foreground packet must be rejected at enqueue (the fluid-share
	// drop), not queued behind an eternity of fluid.
	k, n, a, b := twoNodes(2*units.Mbps, 0)
	f := n.NewFluidFlow("bg", a, b, 9000, 10*units.Mbps, 1000)
	f.Start()
	if err := k.RunUntil(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	err := a.Send(&Packet{Src: a.Addr(), Dst: b.Addr(), Proto: ProtoUDP, Size: 1028})
	if err != ErrEgressDrop {
		t.Fatalf("send with saturated fluid: err=%v, want ErrEgressDrop", err)
	}
	if got := ifaceCount(a.Ifaces()[0], "netsim_egress_drops_total"); got != 1 {
		t.Fatalf("egress drops = %d, want 1", got)
	}
}

func TestFluidStopsAtDownLinkAndReroutes(t *testing.T) {
	// a→b→c with a backup a→d→c path: taking b-c down must zero the
	// delivered rate under static routing, and auto-reroute must
	// restore it over the backup.
	k := sim.New(1)
	n := New(k)
	a := n.AddNode("a")
	b := n.AddNode("b")
	c := n.AddNode("c")
	d := n.AddNode("d")
	n.Connect(a, b, 10*units.Mbps, time.Millisecond)
	lbc := n.Connect(b, c, 10*units.Mbps, time.Millisecond)
	n.Connect(a, d, 10*units.Mbps, 5*time.Millisecond)
	n.Connect(d, c, 10*units.Mbps, 5*time.Millisecond)
	n.ComputeRoutes()
	n.SetAutoReroute(true)

	f := n.NewFluidFlow("bg", a, c, 9000, 4*units.Mbps, 1000)
	f.Start()
	if err := k.RunUntil(time.Second); err != nil {
		t.Fatal(err)
	}
	if got := deliveredRate(f); got != 4*units.Mbps {
		t.Fatalf("pre-fault delivered %v, want 4 Mb/s", got)
	}
	lbc.SetUp(false)
	if got := deliveredRate(f); got != 4*units.Mbps {
		t.Fatalf("post-fault delivered %v, want 4 Mb/s via backup", got)
	}
	before := deliveredBytes(f)
	if err := k.RunUntil(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if got := deliveredBytes(f) - before; got < units.ByteSize(4_000_000/8)-1 {
		t.Fatalf("delivered only %v bytes over the backup second", got)
	}
	// The backup path's interfaces carry the rate now.
	var ad *Iface
	for _, ifc := range a.Ifaces() {
		if ifc.Peer().Node() == d {
			ad = ifc
		}
	}
	if rate, _, _ := fluidAt(ad); rate != 4*units.Mbps {
		t.Fatalf("backup egress fluid rate %v, want 4 Mb/s", rate)
	}
}

func TestFluidRateChangeEventsOnly(t *testing.T) {
	// Steady fluid must cost zero kernel events: after start, a pure
	// fluid network runs out of events immediately.
	k, n, a, _, c := threeNodes(10*units.Mbps, 10*units.Mbps)
	f := n.NewFluidFlow("bg", a, c, 9000, 4*units.Mbps, 1000)
	k.AfterPrioFunc(0, sim.PrioNet, func(a0, _ any) { a0.(*FluidFlow).Start() }, f, nil)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got := k.EventsRun(); got != 1 {
		t.Fatalf("steady fluid ran %d events, want exactly the start event", got)
	}
	if k.Now() != 0 {
		t.Fatalf("kernel advanced to %v on pure fluid", k.Now())
	}
}
