package gara

import (
	"errors"
	"testing"
	"time"

	"mpichgq/internal/diffserv"
	"mpichgq/internal/netsim"
	"mpichgq/internal/sim"
	"mpichgq/internal/units"
)

// twoDomains builds
//
//	hostA - e1 - c1 ===border=== c2 - e2 - hostB
//
// with domain 1 owning {hostA-e1, e1-c1, border} and domain 2 owning
// {c2-e2, e2-hostB}, each with its own Gara and scoped NetworkRM. The
// tests drive the two-phase co-reservation (Gara.Prepare, then
// Prepared.Commit or Abort) that ctrlplane's Coordinator runs over the
// wire.
type twoDomainRig struct {
	k            *sim.Kernel
	net          *netsim.Network
	hostA, hostB *netsim.Node
	c1, c2       *netsim.Node
	border       *netsim.Link
	g1, g2       *Gara
	rm1, rm2     *NetworkRM
}

func newTwoDomains() *twoDomainRig {
	k := sim.New(1)
	n := netsim.New(k)
	hostA, e1, c1 := n.AddNode("hostA"), n.AddNode("e1"), n.AddNode("c1")
	c2, e2, hostB := n.AddNode("c2"), n.AddNode("e2"), n.AddNode("hostB")
	l1 := n.Connect(hostA, e1, 100*units.Mbps, time.Millisecond)
	l2 := n.Connect(e1, c1, 100*units.Mbps, time.Millisecond)
	border := n.Connect(c1, c2, 50*units.Mbps, 2*time.Millisecond)
	l4 := n.Connect(c2, e2, 100*units.Mbps, time.Millisecond)
	l5 := n.Connect(e2, hostB, 100*units.Mbps, time.Millisecond)
	n.ComputeRoutes()

	dom1 := diffserv.NewDomain(k)
	dom1.EnableEFAll(e1, c1)
	dom2 := diffserv.NewDomain(k)
	dom2.EnableEFAll(c2, e2)

	rm1 := NewNetworkRM(n, dom1, 0.5)
	rm1.Scope = LinkScope(l1, l2, border)
	rm2 := NewNetworkRM(n, dom2, 0.5)
	rm2.Scope = LinkScope(l4, l5)

	g1, g2 := New(k), New(k)
	g1.Register(rm1)
	g2.Register(rm2)
	return &twoDomainRig{
		k: k, net: n, hostA: hostA, hostB: hostB, c1: c1, c2: c2,
		border: border, g1: g1, g2: g2, rm1: rm1, rm2: rm2,
	}
}

func (r *twoDomainRig) spec(bw units.BitRate) Spec {
	return Spec{
		Type:      ResourceNetwork,
		Flow:      diffserv.MatchHostPair(r.hostA.Addr(), r.hostB.Addr(), netsim.ProtoUDP),
		Bandwidth: bw,
	}
}

// reserveBoth prepares spec in both domains, then commits both
// segments.
func (r *twoDomainRig) reserveBoth(t *testing.T, spec Spec) []*Reservation {
	t.Helper()
	var prepared []*Prepared
	for _, g := range []*Gara{r.g1, r.g2} {
		p, err := g.Prepare(spec, 0)
		if err != nil {
			t.Fatal(err)
		}
		prepared = append(prepared, p)
	}
	var rs []*Reservation
	for _, p := range prepared {
		res, err := p.Commit()
		if err != nil {
			t.Fatal(err)
		}
		rs = append(rs, res)
	}
	return rs
}

func TestMultiDomainReserveBooksBothSegments(t *testing.T) {
	r := newTwoDomains()
	rs := r.reserveBoth(t, r.spec(10*units.Mbps))
	// Domain 1 booked the border link; domain 2 booked its leg.
	if r.rm1.Utilization(r.border, r.k.Now()) == 0 {
		t.Fatal("domain 1 did not book the border link")
	}
	if r.rm2.Utilization(r.net.Links()[3], r.k.Now()) == 0 {
		t.Fatal("domain 2 did not book its segment")
	}
	// Only the originating domain installed an edge rule.
	if r.rm1.Enforcement(rs[0]) == nil {
		t.Fatal("originating domain should install edge marking")
	}
	if r.rm2.Enforcement(rs[1]) != nil {
		t.Fatal("transit/destination domain must not re-mark")
	}
	for _, res := range rs {
		res.Cancel()
	}
	if r.rm1.Utilization(r.border, r.k.Now()) != 0 {
		t.Fatal("cancel did not release domain 1 capacity")
	}
}

// An unrelated flow fills domain 2's e2-hostB EF share, so the
// end-to-end prepare is refused downstream after domain 1 has already
// booked its segment; aborting that held prepare must leave domain 1
// with nothing booked.
func TestMultiDomainRollsBackOnDownstreamRefusal(t *testing.T) {
	r := newTwoDomains()
	// 0.5 × 100 Mb/s = 50 Mb/s share; 45 + 10 does not fit.
	if _, err := r.g2.Reserve(Spec{
		Type:      ResourceNetwork,
		Flow:      diffserv.MatchHostPair(r.net.Nodes()[4].Addr(), r.hostB.Addr(), netsim.ProtoTCP),
		Bandwidth: 45 * units.Mbps,
	}); err != nil {
		t.Fatal(err)
	}
	p1, err := r.g1.Prepare(r.spec(10*units.Mbps), 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.g2.Prepare(r.spec(10*units.Mbps), 0); err == nil {
		t.Fatal("downstream refusal expected")
	}
	p1.Abort()
	if r.rm1.Utilization(r.border, r.k.Now()) != 0 {
		t.Fatal("rollback left capacity booked in domain 1")
	}
}

func TestMultiDomainEndToEndProtection(t *testing.T) {
	r := newTwoDomains()
	r.reserveBoth(t, r.spec(10*units.Mbps))
	// Blast both domains' shared links best effort.
	blastTo := func(from, to *netsim.Node, port netsim.Port) {
		sock, err := from.UDPStack().Bind(0)
		if err != nil {
			t.Fatal(err)
		}
		to.UDPStack() // ensure sink stack exists (drops are fine)
		r.k.Spawn("blast", func(ctx *sim.Ctx) {
			gap := (60 * units.Mbps).TimeToSend(1028)
			for ctx.Now() < 10*time.Second {
				sock.SendTo(to.Addr(), port, 1000)
				ctx.Sleep(gap)
			}
		})
	}
	blastTo(r.net.Nodes()[1], r.net.Nodes()[4], 9000) // crosses the 50 Mb/s border
	var rx int64
	sink, err := r.hostB.UDPStack().Bind(700)
	if err != nil {
		t.Fatal(err)
	}
	sink.Serve(func(dg netsim.Datagram) { rx += int64(dg.Len) })
	src, err := r.hostA.UDPStack().Bind(0)
	if err != nil {
		t.Fatal(err)
	}
	r.k.Spawn("prem", func(ctx *sim.Ctx) {
		gap := (9 * units.Mbps).TimeToSend(1028)
		for ctx.Now() < 10*time.Second {
			src.SendTo(r.hostB.Addr(), 700, 1000)
			ctx.Sleep(gap)
		}
	})
	if err := r.k.RunUntil(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	rate := units.RateOf(units.ByteSize(rx), 10*time.Second)
	if rate < 8*units.Mbps {
		t.Fatalf("cross-domain premium flow achieved %v, want ~9 Mb/s", rate)
	}
}

func TestMultiDomainNoOwningDomain(t *testing.T) {
	r := newTwoDomains()
	// A flow entirely inside domain 2, requested from domain 1's Gara:
	// its scoped RM owns no hop and refuses with ErrNotInDomain.
	spec := Spec{
		Type:      ResourceNetwork,
		Flow:      diffserv.MatchHostPair(r.net.Nodes()[4].Addr(), r.hostB.Addr(), netsim.ProtoTCP),
		Bandwidth: units.Mbps,
	}
	if _, err := r.g1.Prepare(spec, 0); !errors.Is(err, ErrNotInDomain) {
		t.Fatalf("prepare outside the domain: err = %v, want ErrNotInDomain", err)
	}
	if _, err := r.g1.Reserve(spec); !errors.Is(err, ErrNotInDomain) {
		t.Fatalf("reserve outside the domain: err = %v, want ErrNotInDomain", err)
	}
}
