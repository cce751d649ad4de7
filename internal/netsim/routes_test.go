package netsim

import (
	"testing"
	"testing/quick"
	"time"

	"mpichgq/internal/quicktest"
	"mpichgq/internal/sim"
	"mpichgq/internal/units"
)

// Property: on a random connected topology (random tree plus random
// extra edges), ComputeRoutes yields a route between every node pair,
// and packets actually arrive.
func TestComputeRoutesConnectivityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := sim.NewRNG(seed)
		k := sim.New(seed)
		net := New(k)
		n := 3 + rng.Intn(10)
		nodes := make([]*Node, n)
		for i := range nodes {
			nodes[i] = net.AddNode(nodeName(i))
		}
		// Random tree: node i connects to a random earlier node.
		for i := 1; i < n; i++ {
			net.Connect(nodes[i], nodes[rng.Intn(i)], 100*units.Mbps, time.Duration(rng.Intn(5)+1)*time.Millisecond)
		}
		// A few extra edges.
		for e := 0; e < rng.Intn(3); e++ {
			a, b := rng.Intn(n), rng.Intn(n)
			if a != b && !connected(nodes[a], nodes[b]) {
				net.Connect(nodes[a], nodes[b], 100*units.Mbps, time.Millisecond)
			}
		}
		net.ComputeRoutes()
		for _, a := range nodes {
			for _, b := range nodes {
				if a != b && a.RouteTo(b.Addr()) == nil {
					return false
				}
			}
		}
		// Deliver a packet along a random pair.
		src := nodes[rng.Intn(n)]
		dst := nodes[rng.Intn(n)]
		if src == dst {
			return true
		}
		got := false
		dst.Handle(ProtoUDP, handlerFunc(func(p *Packet) { got = true }))
		src.Send(&Packet{Src: src.Addr(), Dst: dst.Addr(), Proto: ProtoUDP, Size: 100})
		if err := k.Run(); err != nil {
			return false
		}
		return got
	}
	if err := quick.Check(f, quicktest.Config(t, 40)); err != nil {
		t.Fatal(err)
	}
}

func connected(a, b *Node) bool {
	for _, ifc := range a.Ifaces() {
		if ifc.Peer() != nil && ifc.Peer().Node() == b {
			return true
		}
	}
	return false
}

func nodeName(i int) string {
	const digits = "0123456789"
	if i == 0 {
		return "n0"
	}
	s := ""
	for i > 0 {
		s = string(digits[i%10]) + s
		i /= 10
	}
	return "n" + s
}

// Property: total bytes received never exceed bytes sent on a lossy
// path (conservation).
func TestConservationUnderLossProperty(t *testing.T) {
	f := func(seed int64, lossPct uint8) bool {
		k := sim.New(seed)
		net := New(k)
		a, b := net.AddNode("a"), net.AddNode("b")
		net.Connect(a, b, 10*units.Mbps, time.Millisecond)
		net.ComputeRoutes()
		loss := float64(lossPct%60) / 100
		rng := sim.NewRNG(seed)
		b.Ifaces()[0].AddIngress(filterFunc(func(p *Packet) *Packet {
			if rng.Float64() < loss {
				return nil
			}
			return p
		}))
		var rx int64
		b.Handle(ProtoUDP, handlerFunc(func(p *Packet) { rx += int64(p.Size) }))
		var tx int64
		for i := 0; i < 50; i++ {
			size := units.ByteSize(rng.Intn(1400) + 28)
			if a.Send(&Packet{Src: a.Addr(), Dst: b.Addr(), Proto: ProtoUDP, Size: size}) == nil {
				tx += int64(size)
			}
		}
		if err := k.Run(); err != nil {
			return false
		}
		return rx <= tx
	}
	if err := quick.Check(f, quicktest.Config(t, 40)); err != nil {
		t.Fatal(err)
	}
}
