package netsim

import (
	"math"
	"testing"
	"time"

	"mpichgq/internal/sim"
	"mpichgq/internal/units"
)

// benchLink builds a two-node network with one 100 Mbps link and a
// sink handler that recycles delivered packets.
func benchLink(tb testing.TB) (*sim.Kernel, *Network, *Node, *Node) {
	k := sim.New(1)
	n := New(k)
	a := n.AddNode("a")
	b := n.AddNode("b")
	n.Connect(a, b, 100*1000*1000, time.Millisecond)
	n.ComputeRoutes()
	b.Handle(ProtoUDP, handlerFunc(func(p *Packet) { n.FreePacket(p) }))
	return k, n, a, b
}

// BenchmarkLinkForward measures one packet crossing one link:
// enqueue, serialization event, propagation event, ingress, delivery,
// recycle. This is the simulator's innermost loop and must not
// allocate in steady state.
func BenchmarkLinkForward(b *testing.B) {
	k, n, src, dst := benchLink(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := n.AllocPacket()
		p.Src, p.Dst = src.Addr(), dst.Addr()
		p.Proto = ProtoUDP
		p.Size = 1500
		if err := src.Send(p); err != nil {
			b.Fatal(err)
		}
		if err := k.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// TestLinkForwardZeroAlloc is the CI guard for the packet-forward hot
// path: once pools are warm, forwarding a packet across a link must
// perform zero heap allocations.
func TestLinkForwardZeroAlloc(t *testing.T) {
	k, n, src, dst := benchLink(t)
	send := func() {
		p := n.AllocPacket()
		p.Src, p.Dst = src.Addr(), dst.Addr()
		p.Proto = ProtoUDP
		p.Size = 1500
		if err := src.Send(p); err != nil {
			t.Fatal(err)
		}
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
	}
	// Warm the event, packet, and heap pools.
	for i := 0; i < 64; i++ {
		send()
	}
	if allocs := testing.AllocsPerRun(1000, send); allocs != 0 {
		t.Fatalf("link forward allocates %.1f objects per packet, want 0", allocs)
	}
}

// TestBlasterTickZeroAlloc guards the UDP path a packet-level blaster
// drives: once pools are warm, one datagram sent by SendTo, forwarded
// over two hops and handed to a Serve receiver performs zero heap
// allocations.
func TestBlasterTickZeroAlloc(t *testing.T) {
	k := sim.New(1)
	n := New(k)
	a, r, b := n.AddNode("a"), n.AddNode("r"), n.AddNode("b")
	n.Connect(a, r, 100*1000*1000, time.Millisecond)
	n.Connect(r, b, 100*1000*1000, time.Millisecond)
	n.ComputeRoutes()
	src, err := a.UDPStack().Bind(0)
	if err != nil {
		t.Fatal(err)
	}
	sink, err := b.UDPStack().Bind(9000)
	if err != nil {
		t.Fatal(err)
	}
	received := 0
	sink.Serve(func(Datagram) { received++ })
	tick := func() {
		if ok, err := src.SendTo(b.Addr(), 9000, 1000); !ok || err != nil {
			t.Fatalf("SendTo: ok=%v err=%v", ok, err)
		}
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 64; i++ {
		tick()
	}
	if allocs := testing.AllocsPerRun(1000, tick); allocs != 0 {
		t.Fatalf("blaster tick allocates %.1f objects per datagram, want 0", allocs)
	}
	if received != 64+1001 {
		t.Fatalf("received %d datagrams, want %d", received, 64+1001)
	}
}

// fluidDumbbell is two 8 Mb/s fluid flows sharing a 10 Mb/s
// bottleneck in a dumbbell, so the solver integrates a growing backlog
// and attenuates both flows.
func fluidDumbbell() (*sim.Kernel, *Network) {
	k := sim.New(1)
	n := New(k)
	a1, a2 := n.AddNode("a1"), n.AddNode("a2")
	r1, r2 := n.AddNode("r1"), n.AddNode("r2")
	b1, b2 := n.AddNode("b1"), n.AddNode("b2")
	n.Connect(a1, r1, 100*units.Mbps, time.Millisecond)
	n.Connect(a2, r1, 100*units.Mbps, time.Millisecond)
	n.Connect(r1, r2, 10*units.Mbps, time.Millisecond)
	n.Connect(r2, b1, 100*units.Mbps, time.Millisecond)
	n.Connect(r2, b2, 100*units.Mbps, time.Millisecond)
	n.ComputeRoutes()
	n.NewFluidFlow("bg1", a1, b1, 9000, 8*units.Mbps, 1000).Start()
	n.NewFluidFlow("bg2", a2, b2, 9000, 8*units.Mbps, 1000).Start()
	return k, n
}

// BenchmarkRefreshFluid measures one network-wide re-solve of the
// fluid rates, the work of every fluid Start, Stop and SetRate, on
// fluidDumbbell. Each iteration first advances the clock by a
// millisecond.
func BenchmarkRefreshFluid(b *testing.B) {
	k, n := fluidDumbbell()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := k.RunUntil(k.Now() + time.Millisecond); err != nil {
			b.Fatal(err)
		}
		n.refreshFluid()
	}
}

// fluidPolicer is a FluidFilter that polices like a DiffServ EF rule
// with a remark action: per solver pass, its flows share rate bytes/s
// of EF, and the excess goes on as best effort, so one component in
// becomes two out.
type fluidPolicer struct {
	rate, budget float64
	gen          uint64
}

func (f *fluidPolicer) Filter(p *Packet) *Packet { return p }

func (f *fluidPolicer) FilterFluid(gen uint64, _ FlowKey, comps, out []FluidComponent) []FluidComponent {
	if f.gen != gen {
		f.gen, f.budget = gen, f.rate
	}
	for _, c := range comps {
		conform := math.Min(c.Rate, f.budget)
		f.budget -= conform
		out = append(out, FluidComponent{Rate: conform, DSCP: DSCPEF})
		if c.Rate > conform {
			out = append(out, FluidComponent{Rate: c.Rate - conform, DSCP: DSCPBestEffort})
		}
	}
	return out
}

// TestRefreshFluidZeroAlloc: a re-solve allocates nothing, also when a
// hop polices a flow and splits it into an EF and a best-effort
// component. The components a flow carries along its path, and those a
// fluid filter writes, live in two scratch slices the network keeps.
func TestRefreshFluidZeroAlloc(t *testing.T) {
	for _, policed := range []bool{false, true} {
		k, n := fluidDumbbell()
		pol := &fluidPolicer{rate: 2e6 / 8}
		if policed {
			r1 := n.Nodes()[2]
			r1.Ifaces()[0].AddIngress(pol)
		}
		resolve := func() {
			if err := k.RunUntil(k.Now() + time.Millisecond); err != nil {
				t.Fatal(err)
			}
			n.refreshFluid()
		}
		resolve()
		if allocs := testing.AllocsPerRun(200, resolve); allocs != 0 {
			t.Fatalf("policed %v: a fluid re-solve allocates %v times, want 0", policed, allocs)
		}
		if policed && pol.gen != n.fluidGen {
			t.Fatalf("the policer last saw pass %d, the re-solve ran pass %d", pol.gen, n.fluidGen)
		}
	}
}
