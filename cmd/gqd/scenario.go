package main

import (
	"fmt"
	"time"

	"mpichgq/internal/ctrlplane"
	"mpichgq/internal/diffserv"
	"mpichgq/internal/experiments"
	"mpichgq/internal/faults"
	"mpichgq/internal/gara"
	"mpichgq/internal/garnet"
	"mpichgq/internal/netsim"
	"mpichgq/internal/sim"
	"mpichgq/internal/trafficgen"
	"mpichgq/internal/units"
)

// traceCapacity sizes the daemon kernel's completed-span ring: the
// daemon exists to serve trace queries, so it retains more than the
// tracer default.
const traceCapacity = 1 << 16

// buildScenario constructs the requested live scenario on a fresh
// kernel, tracing enabled, ready to be stepped to dur. The returned
// extras hook (may be nil) adds scenario-specific health fields to
// /healthz; it is called under the daemon's kernel mutex.
func buildScenario(name string, seed int64, dur time.Duration) (*sim.Kernel, func(map[string]any), error) {
	switch name {
	case "fig5":
		return fig5Scenario(seed, dur), nil, nil
	case "ctrl":
		k, extras := ctrlScenario(seed, dur)
		return k, extras, nil
	default:
		return nil, nil, fmt.Errorf("gqd: unknown scenario %q (want fig5 or ctrl)", name)
	}
}

// fig5Scenario is one Figure 5 point, live: an MPI ping-pong of 40 Kb
// messages with an 8 Mb/s premium reservation on the GARNET testbed
// under heavy UDP contention. It exercises GARA admission, diffserv
// policing, and the TCP stack, so /metrics shows live throughput and
// /traces carries gara.* and tcp.* spans.
func fig5Scenario(seed int64, dur time.Duration) *sim.Kernel {
	tb := garnet.New(seed)
	tb.K.Tracer().SetCapacity(traceCapacity)
	tb.K.Tracer().SetEnabled(true)
	experiments.StartPingPong(experiments.Config{}, tb, 40*units.Kbit, 8*units.Mbps, true, dur)
	return tb.K
}

// ctrlScenario is the figure G control plane, live: two administrative
// domains behind a lossy control channel, an RM crash/restart, and a
// driver issuing two-phase co-reservations for the whole run, plus a
// tenant reservation storm pressing dom1's admission queue so queue
// depth, sheds, and brownout transitions stay visible in /metrics and
// /healthz. It keeps the co.*, rpc.*, server.*, gara.*, admission.*,
// and fault.* span streams flowing for /traces queries.
func ctrlScenario(seed int64, dur time.Duration) (*sim.Kernel, func(map[string]any)) {
	k := sim.New(seed)
	k.Tracer().SetCapacity(traceCapacity)
	k.Tracer().SetEnabled(true)
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
	rm1 := gara.NewNetworkRM(n, dom1, 0.5)
	rm1.Scope = gara.LinkScope(l1, l2, border)
	rm2 := gara.NewNetworkRM(n, dom2, 0.5)
	rm2.Scope = gara.LinkScope(l4, l5)
	g1, g2 := gara.New(k), gara.New(k)
	g1.Register(rm1)
	g2.Register(rm2)

	plane := ctrlplane.NewPlane(k, ctrlplane.Options{
		Timeout:  50 * time.Millisecond,
		Deadline: 500 * time.Millisecond,
		LeaseTTL: 3 * time.Second,
		// Finite broker capacity (500 req/s per domain) with the full
		// overload-control ladder, so the storm below actually queues,
		// sheds, and browns out instead of executing instantaneously.
		Admission: ctrlplane.Admission{
			ServiceTime:  2 * time.Millisecond,
			QueueLimit:   32,
			CoDelTarget:  40 * time.Millisecond,
			DropExpired:  true,
			BrownoutHi:   24,
			BrownoutLo:   6,
			BrownoutHold: 2 * time.Second,
		},
	})
	plane.AddDomain("dom1", g1, rm1)
	plane.AddDomain("dom2", g2, rm2)
	co := plane.Coordinator()

	// Moderate loss the whole run, plus one crash/restart at 40%/50%
	// of the horizon — enough chaos that retries, rollbacks, and lease
	// expiries all appear in the trace stream.
	sc := faults.NewScenario("gqd-ctrl").
		CtrlLoss("dom1", 0, dur, 0.25).
		CtrlLoss("dom2", 0, dur, 0.25).
		CtrlCrash(dur*2/5, "dom2").
		CtrlRestart(dur/2, "dom2")
	sc.MustApplyWith(n, plane)

	k.Spawn("gqd-ctrl-driver", func(ctx *sim.Ctx) {
		for ctx.Now() < dur {
			spec := gara.Spec{
				Type:      gara.ResourceNetwork,
				Class:     gara.ClassPremium,
				Flow:      diffserv.MatchHostPair(hostA.Addr(), hostB.Addr(), netsim.ProtoUDP),
				Bandwidth: 10 * units.Mbps,
				Start:     ctx.Now(),
				Duration:  20 * time.Second,
			}
			mr, err := co.Reserve(ctx, spec)
			if err == nil {
				ctx.Sleep(time.Second)
				_ = mr.Cancel(ctx)
			}
			ctx.Sleep(1500 * time.Millisecond)
		}
	})

	// A tenant storm bursting past dom1's broker capacity: enough
	// pressure that admission queueing, shedding, and brownout all show
	// up live, while the premium co-reservation driver above keeps
	// succeeding through class protection.
	storm := &trafficgen.ReservationStorm{
		Conns:    []*ctrlplane.Conn{plane.AddTenantConn("dom1", "storm")},
		Rate:     650,
		Clients:  2,
		Adaptive: true,
		Stop:     dur,
		Spec: func(i int) gara.Spec {
			cls := gara.ClassBestEffort
			if i%3 == 0 {
				cls = gara.ClassNormal
			}
			return gara.Spec{
				Type:      gara.ResourceNetwork,
				Class:     cls,
				Flow:      diffserv.MatchHostPair(hostA.Addr(), c1.Addr(), netsim.ProtoUDP),
				Bandwidth: units.Mbps,
				Duration:  2 * time.Second,
			}
		},
	}
	storm.Run(k)

	srv1, srv2 := plane.Conn("dom1").Server(), plane.Conn("dom2").Server()
	extras := func(resp map[string]any) {
		resp["admission"] = map[string]any{
			"dom1": map[string]int{"queue_depth": srv1.QueueDepth(), "brownout_level": srv1.BrownoutLevel()},
			"dom2": map[string]int{"queue_depth": srv2.QueueDepth(), "brownout_level": srv2.BrownoutLevel()},
		}
	}
	return k, extras
}
