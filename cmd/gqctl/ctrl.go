package main

import (
	"flag"
	"fmt"
	"sort"
	"time"

	"mpichgq/internal/ctrlplane"
	"mpichgq/internal/diffserv"
	"mpichgq/internal/faults"
	"mpichgq/internal/gara"
	"mpichgq/internal/netsim"
	"mpichgq/internal/sim"
	"mpichgq/internal/trace"
	"mpichgq/internal/trafficgen"
	"mpichgq/internal/units"
)

// ctrlCmd implements "gqctl ctrl": run a two-domain co-reservation
// workload over a lossy control plane (including one RM crash/restart)
// and dump the control-plane health view an operator would consult —
// per-RM breaker state, RPC retry/timeout counters, outstanding
// prepare leases, journal positions, and the overload-control surface
// (admission queue depth, brownout level, shed counters by reason)
// under a tenant reservation storm.
func ctrlCmd(args []string) {
	fs := flag.NewFlagSet("gqctl ctrl", flag.ExitOnError)
	seed := fs.Int64("seed", 1, "simulation seed")
	until := fs.Duration("until", 20*time.Second, "virtual time to run the workload for")
	loss := fs.Float64("loss", 0.25, "control-channel loss probability during the first half of the run")
	stormRate := fs.Float64("storm", 650, "tenant reservation-storm arrival rate against dom1 (req/s; 0 disables)")
	must(fs.Parse(args))

	// Two administrative domains around a border link:
	//
	//	hostA - e1 - c1 ===border=== c2 - e2 - hostB
	k := sim.New(*seed)
	defer k.Close()
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
		// Finite broker capacity with the overload-control ladder, so
		// the storm below exercises queueing, shedding, and brownout.
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

	// Tenant storm against dom1: adaptive AIMD clients plus open-loop
	// Poisson arrivals, a best-effort-heavy class mix, short windows.
	var storm *trafficgen.ReservationStorm
	if *stormRate > 0 {
		storm = &trafficgen.ReservationStorm{
			Conns:    []*ctrlplane.Conn{plane.AddTenantConn("dom1", "storm")},
			Rate:     *stormRate,
			Clients:  2,
			Adaptive: true,
			Stop:     *until,
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
	}

	// Chaos: lossy channels for the first half of the run, plus one RM
	// crash/restart a quarter of the way in.
	sc := faults.NewScenario("ctrl-chaos").
		CtrlLoss("dom1", 0, *until/2, *loss).
		CtrlLoss("dom2", 0, *until/2, *loss).
		CtrlCrash(*until/4, "dom2").
		CtrlRestart(*until/4+2*time.Second, "dom2")
	if _, err := sc.ApplyWith(n, plane); err != nil {
		must(err)
	}

	// Workload: sequential finite-window co-reservations, half of them
	// cancelled again, so the dump shows live slots, leases, and a
	// populated journal.
	var ok, failed int
	k.Spawn("workload", func(ctx *sim.Ctx) {
		for i := 0; ctx.Now() < *until-2*time.Second; i++ {
			spec := gara.Spec{
				Type: gara.ResourceNetwork,
				// Premium, so class protection carries the co-reservation
				// workload through the storm-driven brownout.
				Class:     gara.ClassPremium,
				Flow:      diffserv.MatchHostPair(hostA.Addr(), hostB.Addr(), netsim.ProtoUDP),
				Bandwidth: 5 * units.Mbps,
				Start:     ctx.Now(),
				Duration:  4 * time.Second,
			}
			mr, err := co.Reserve(ctx, spec)
			if err != nil {
				failed++
				ctx.Sleep(time.Second)
				continue
			}
			ok++
			ctx.Sleep(500 * time.Millisecond)
			if i%2 == 0 {
				_ = mr.Cancel(ctx)
			}
			ctx.Sleep(time.Second)
		}
	})
	must(k.RunUntil(*until))

	fmt.Printf("=== control plane at t=%v (seed %d, loss %.0f%% until %v) ===\n",
		k.Now(), *seed, 100**loss, *until/2)
	fmt.Printf("co-reservations: %d succeeded, %d failed\n\n", ok, failed)

	reg := k.Metrics()
	cv := func(name, rm string) int64 {
		v, _ := reg.CounterValue(name, "rm", rm)
		return v
	}
	t := trace.Table{Headers: []string{
		"domain", "breaker", "fails", "trips",
		"attempts", "retries", "timeouts", "deadline-fails", "rejects",
		"crashes", "leases", "journal-seq",
	}}
	rms := map[string]*gara.NetworkRM{"dom1": rm1, "dom2": rm2}
	for _, name := range plane.Names() {
		br := plane.Breaker(name)
		rm := rms[name]
		t.Add(name,
			br.State().String(), fmt.Sprint(br.Failures()),
			fmt.Sprint(cv("ctrl_breaker_trips_total", name)),
			fmt.Sprint(cv("ctrl_rpc_attempts_total", name)),
			fmt.Sprint(cv("ctrl_rpc_retries_total", name)),
			fmt.Sprint(cv("ctrl_rpc_timeouts_total", name)),
			fmt.Sprint(cv("ctrl_rpc_failures_total", name)),
			fmt.Sprint(cv("ctrl_rpc_breaker_rejects_total", name)),
			fmt.Sprint(cv("netrm_crashes_total", name)),
			fmt.Sprint(len(rm.Leases())),
			fmt.Sprint(rm.Journal.LastSeq()))
	}
	fmt.Print(t.String())

	// The overload-control surface: queue state and why requests were
	// turned away, per domain.
	shedReasons := []string{"full", "codel", "brownout", "expired", "crash", "evict"}
	ot := trace.Table{Headers: append([]string{
		"domain", "queue-depth", "brownout", "served",
	}, shedReasons...)}
	for _, name := range plane.Names() {
		srv := plane.Conn(name).Server()
		row := []string{
			name,
			fmt.Sprint(srv.QueueDepth()),
			fmt.Sprint(srv.BrownoutLevel()),
			fmt.Sprint(cv("admission_served_total", name)),
		}
		for _, reason := range shedReasons {
			v, _ := reg.CounterValue("admission_shed_total", "rm", name, "reason", reason)
			row = append(row, fmt.Sprint(v))
		}
		ot.Add(row...)
	}
	fmt.Println()
	fmt.Print(ot.String())
	if storm != nil {
		st := storm.Stats()
		fmt.Printf("\nstorm clients (dom1, %g req/s offered): %d offered, %d admitted, "+
			"%d overloaded, %d deadline-expired, %d refused\n",
			*stormRate, st.Offered, st.OK, st.Overloads, st.Deadlines, st.Refused)
		fmt.Printf("admitted by class: premium %d/%d, normal %d/%d, best-effort %d/%d\n",
			st.OKByClass[gara.ClassPremium], st.OfferedByClass[gara.ClassPremium],
			st.OKByClass[gara.ClassNormal], st.OfferedByClass[gara.ClassNormal],
			st.OKByClass[gara.ClassBestEffort], st.OfferedByClass[gara.ClassBestEffort])
	}

	for _, name := range plane.Names() {
		leases := rms[name].Leases()
		if len(leases) == 0 {
			continue
		}
		ids := make([]uint64, 0, len(leases))
		for id := range leases {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		fmt.Printf("\noutstanding leases on %s:\n", name)
		for _, id := range ids {
			fmt.Printf("  reservation %d expires at t=%v\n", id, leases[id])
		}
	}
}
