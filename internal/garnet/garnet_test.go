package garnet

import (
	"strings"
	"testing"
	"time"

	"mpichgq/internal/diffserv"
	"mpichgq/internal/gara"
	"mpichgq/internal/mpi"
	"mpichgq/internal/netsim"
	"mpichgq/internal/sim"
	"mpichgq/internal/tcpsim"
	"mpichgq/internal/trafficgen"
	"mpichgq/internal/units"
)

func TestTopologyConnectivity(t *testing.T) {
	tb := New(1)
	// Every host pair must be routable.
	hosts := []*netsim.Node{tb.PremSrc, tb.PremDst, tb.CompSrc, tb.CompDst}
	for _, a := range hosts {
		for _, b := range hosts {
			if a == b {
				continue
			}
			if a.RouteTo(b.Addr()) == nil {
				t.Fatalf("no route %s -> %s", a.Name(), b.Name())
			}
		}
	}
	if tb.RTT() != 2*time.Millisecond {
		t.Fatalf("RTT = %v, want 2ms", tb.RTT())
	}
	if !strings.Contains(tb.Topology(), "edge1-core") {
		t.Fatal("topology rendering missing bottleneck")
	}
}

func TestPremiumPathCrossesBottleneck(t *testing.T) {
	tb := New(1)
	// Send a UDP packet prem-src -> prem-dst and verify it transits
	// edge1-core.
	src := tb.PremSrc.UDPStack()
	tb.PremDst.UDPStack()
	sock, _ := src.Bind(0)
	sock.SendTo(tb.PremDst.Addr(), 9, 100, nil)
	if err := tb.K.Run(); err != nil {
		t.Fatal(err)
	}
	if tb.Bottleneck.IfaceOn(tb.Edge1).Stats().TxPackets != 1 {
		t.Fatal("premium traffic did not cross the bottleneck")
	}
}

func TestGaraReservationOnTestbed(t *testing.T) {
	tb := New(1)
	spec := gara.Spec{
		Type:      gara.ResourceNetwork,
		Flow:      diffserv.MatchHostPair(tb.PremSrc.Addr(), tb.PremDst.Addr(), netsim.ProtoTCP),
		Bandwidth: 40 * units.Mbps,
	}
	res, err := tb.Gara.Reserve(spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.State() != gara.StateActive {
		t.Fatalf("state = %v", res.State())
	}
	// EF capacity: 0.7 * 155 Mb/s = 108.5 Mb/s per link.
	if _, err := tb.Gara.Reserve(spec); err != nil {
		t.Fatalf("second 40 Mb/s should fit: %v", err)
	}
	spec.Bandwidth = 50 * units.Mbps
	if _, err := tb.Gara.Reserve(spec); err == nil {
		t.Fatal("40+40+50 should exceed the 108.5 Mb/s EF share")
	}
}

func TestMPIPairRunsOnTestbed(t *testing.T) {
	tb := New(1)
	job := tb.NewMPIPair(tcpsim.DefaultOptions(), mpi.JobOptions{})
	rounds := 0
	job.Start(func(ctx *sim.Ctx, r *mpi.Rank) {
		w := r.World()
		for i := 0; i < 10; i++ {
			if r.ID() == 0 {
				r.Send(ctx, w, 1, 0, 10*units.KB, nil)
				r.Recv(ctx, w, 1, 0)
				rounds++
			} else {
				r.Recv(ctx, w, 0, 0)
				r.Send(ctx, w, 0, 0, 10*units.KB, nil)
			}
		}
	})
	if err := tb.K.RunUntil(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if rounds != 10 {
		t.Fatalf("rounds = %d, want 10", rounds)
	}
}

func TestAddSite(t *testing.T) {
	tb := New(1)
	remote := tb.AddSite("anl-wan", 45*units.Mbps, 5*time.Millisecond)
	src := tb.PremSrc.UDPStack()
	remote.UDPStack()
	sock, _ := src.Bind(0)
	ok, err := sock.SendTo(remote.Addr(), 9, 100, nil)
	if err != nil || !ok {
		t.Fatalf("send to remote site: ok=%v err=%v", ok, err)
	}
	delivered := false
	k := tb.K
	rsock, _ := remote.UDPStack().Bind(9)
	rsock.Serve(func(netsim.Datagram) { delivered = true })
	// First packet was sent before the sink bound; send another.
	k.After(time.Millisecond*50, func() { sock.SendTo(remote.Addr(), 9, 100, nil) })
	if err := k.RunUntil(time.Second); err != nil {
		t.Fatal(err)
	}
	if !delivered {
		t.Fatal("wide-area site unreachable")
	}
}

func TestWideAreaPremiumAcrossSites(t *testing.T) {
	// A premium flow from the local testbed to a remote site behind a
	// constrained 45 Mb/s WAN link, while the blaster congests the
	// local bottleneck AND a local best-effort flow competes on the
	// WAN link. The premium flow must hold its reservation end to
	// end; only the EF share of the thin WAN link is admissible.
	tb := New(1)
	remote := tb.AddSite("wan", 45*units.Mbps, 5*time.Millisecond)

	bl := &trafficgen.UDPBlaster{Rate: 160 * units.Mbps, Jitter: 0.1}
	if err := bl.Run(tb.CompSrc, tb.CompDst, 9000); err != nil {
		t.Fatal(err)
	}
	// Cross-WAN best-effort competition.
	bl2 := &trafficgen.UDPBlaster{Rate: 60 * units.Mbps, Jitter: 0.1}
	if err := bl2.Run(tb.CompSrc, remote, 9001); err != nil {
		t.Fatal(err)
	}

	// EF share of the WAN link: 0.7*45 = 31.5 Mb/s. A 40 Mb/s request
	// must be refused; 20 Mb/s is admissible.
	sa := tcpsim.NewStack(tb.PremSrc, tcpsim.DefaultOptions())
	sr := tcpsim.NewStack(remote, tcpsim.DefaultOptions())
	var rx units.ByteSize
	tb.K.Spawn("server", func(ctx *sim.Ctx) {
		l, err := sr.Listen(700)
		if err != nil {
			t.Error(err)
			return
		}
		c, err := l.Accept(ctx)
		if err != nil {
			return
		}
		for {
			n, err := c.Read(ctx, 256*units.KB)
			rx += n
			if err != nil {
				return
			}
		}
	})
	tb.K.Spawn("client", func(ctx *sim.Ctx) {
		c, err := sa.Dial(ctx, remote.Addr(), 700)
		if err != nil {
			t.Error(err)
			return
		}
		big := gara.Spec{
			Type: gara.ResourceNetwork,
			Flow: diffserv.MatchFlow(c.FlowKey()), Bandwidth: 40 * units.Mbps,
		}
		if _, err := tb.Gara.Reserve(big); err == nil {
			t.Error("40 Mb/s should exceed the WAN link's EF share")
		}
		ok := big
		ok.Bandwidth = 20 * units.Mbps
		if _, err := tb.Gara.Reserve(ok); err != nil {
			t.Errorf("20 Mb/s should be admitted: %v", err)
			return
		}
		// Stream paced at 18 Mb/s for 10 s.
		gap := (18 * units.Mbps).TimeToSend(6250)
		for ctx.Now() < 10*time.Second {
			if err := c.Write(ctx, 6250); err != nil {
				return
			}
			ctx.Sleep(gap)
		}
	})
	if err := tb.K.RunUntil(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	rate := units.RateOf(rx, 10*time.Second)
	if rate < 15*units.Mbps {
		t.Fatalf("wide-area premium flow achieved %v, want ~18 Mb/s", rate)
	}
}
